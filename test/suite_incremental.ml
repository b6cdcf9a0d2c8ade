(* Differential tests for incremental satisfiability: the demand–block
   dependency index plus per-demand delta evaluation must produce exactly
   the same verdicts, plans and costs as the full ECMP replay, for every
   planner, alone and combined with the parallel engine. *)

let cfg ~incremental ~jobs =
  Planner.with_incremental incremental
    (Planner.with_jobs jobs (Planner.with_budget (Some 60.0)))

(* Small randomized HGRID scenarios, as in the parallel suite. *)
let random_params seed =
  let g = Kutil.Prng.create ~seed in
  {
    (Gen.params_a ()) with
    Gen.label = Printf.sprintf "inc%d" seed;
    dcs = 1 + Kutil.Prng.int g 2;
    rsws_per_pod = 1 + Kutil.Prng.int g 2;
    v1_grids = 1 + Kutil.Prng.int g 3;
    v2_grids = 2 + Kutil.Prng.int g 3;
    mesh_variants = 1 + Kutil.Prng.int g 2;
    ssw_port_headroom = 1 + Kutil.Prng.int g 2;
  }

let random_task seed =
  Task.of_scenario ~seed (Gen.build Gen.Hgrid_v1_to_v2 (random_params seed))

let outcome_fingerprint = function
  | Planner.Found p ->
      Printf.sprintf "found %.9f [%s]" p.Plan.cost
        (String.concat "," (List.map string_of_int p.Plan.blocks))
  | Planner.Infeasible -> "infeasible"
  | Planner.Timeout (Some p) -> Printf.sprintf "timeout %.9f" p.Plan.cost
  | Planner.Timeout None -> "timeout"
  | Planner.Unsupported why -> "unsupported: " ^ why

let planners : (string * (Planner.config -> Task.t -> Planner.result)) list =
  [
    ("astar", fun config task -> Astar.plan ~config task);
    ("dp", fun config task -> Dp.plan ~config task);
    ("exhaustive", fun config task -> Exhaustive.plan ~config task);
    ("greedy", fun config task -> Greedy.plan ~config task);
  ]

let check_task label task =
  List.iter
    (fun (name, plan) ->
      let reference = plan (cfg ~incremental:false ~jobs:1) task in
      List.iter
        (fun jobs ->
          let inc = plan (cfg ~incremental:true ~jobs) task in
          Alcotest.(check string)
            (Printf.sprintf "%s: %s incremental jobs=%d" label name jobs)
            (outcome_fingerprint reference.Planner.outcome)
            (outcome_fingerprint inc.Planner.outcome))
        [ 1; 4 ])
    planners

let test_differential_random () =
  for seed = 1 to 5 do
    check_task (Printf.sprintf "seed %d" seed) (random_task seed)
  done

let test_differential_label_a () =
  check_task "topology A" (Task.of_scenario (Gen.scenario_of_label "A"))

let test_differential_labels_bc () =
  List.iter
    (fun label ->
      check_task ("topology " ^ label)
        (Task.of_scenario (Gen.scenario_of_label label)))
    [ "B"; "C" ]

let test_differential_other_migrations () =
  (* SSW forklift and DMAG exercise different block/stage shapes (these
     are also where the delta evaluation pays off most). *)
  List.iter
    (fun kind ->
      let task = Task.of_scenario (Gen.build kind (Gen.params_a ())) in
      check_task (Gen.kind_to_string kind) task)
    [ Gen.Ssw_forklift; Gen.Dmag ]

(* Raw apply/unapply random walk: verdicts and diagnostics of an
   incremental checker must track a full checker step by step, including
   non-monotone (undrain-then-redrain) trajectories the planners never
   produce.  The HGRID seeds are the full-path case: their delta layer
   is never instantiated.  C-SSW, C-DMAG and OCS instantiate it, so their
   walks run [Ecmp.evaluate_patch] against the full evaluation. *)
let test_random_walk_verdicts () =
  List.iter
    (fun (label, task, delta, walk_seed) ->
      let full = Constraint.create ~incremental:false task in
      let inc = Constraint.create ~incremental:true task in
      Alcotest.(check bool) (label ^ ": incremental checker active") true
        (Constraint.incremental_active inc);
      Alcotest.(check bool) (label ^ ": delta layer instantiated") delta
        (Constraint.delta_profitable task);
      let n = Array.length task.Task.blocks in
      let applied = Array.make n false in
      let g = Kutil.Prng.create ~seed:walk_seed in
      for _ = 1 to 4 * n do
        let b = Kutil.Prng.int g n in
        if applied.(b) then begin
          Constraint.unapply_block full b;
          Constraint.unapply_block inc b
        end
        else begin
          Constraint.apply_block full b;
          Constraint.apply_block inc b
        end;
        applied.(b) <- not applied.(b);
        let last_block = if applied.(b) then Some b else None in
        Alcotest.(check bool) (label ^ ": verdicts agree")
          (Constraint.current_ok ?last_block full)
          (Constraint.current_ok ?last_block inc);
        let sf = Constraint.evaluate_current full in
        let si = Constraint.evaluate_current inc in
        Alcotest.check (Alcotest.float 1e-9) (label ^ ": max_util agrees")
          sf.Constraint.max_util si.Constraint.max_util;
        Alcotest.check (Alcotest.float 1e-9) (label ^ ": stuck agrees")
          sf.Constraint.stuck si.Constraint.stuck
      done)
    [
      ("HGRID seed 3", random_task 3, false, 3 * 17);
      ("HGRID seed 8", random_task 8, false, 8 * 17);
      ( "C-SSW",
        Task.of_scenario (Gen.build Gen.Ssw_forklift (Gen.params_c ())),
        true,
        5 );
      ("C-DMAG", Task.of_scenario (Gen.build Gen.Dmag (Gen.params_c ())), true, 6);
      ("OCS", Task.of_scenario (Gen.scenario_of_label "OCS"), true, 7);
    ]

(* [Ecmp.evaluate_patch] names every circuit whose load it changes: the
   delta layer rechecks θ only on the circuits passed to [mark].  Random
   block walks patch each class the index lists for the toggled block and
   compare the loads bit for bit before and after the patch. *)
let test_patch_marks_complete () =
  let set_block topo (b : Blocks.t) ~applied =
    match
      if applied then Action.applies b.Blocks.action
      else Action.inverse b.Blocks.action
    with
    | Action.Set_activity active ->
        Array.iter
          (fun s -> Topo.set_switch_active topo s active)
          b.Blocks.switches;
        Array.iter
          (fun j -> Topo.set_circuit_active topo j active)
          b.Blocks.circuits
    | Action.Set_wiring target ->
        Array.iter (fun j -> Topo.set_circuit_hi topo j target) b.Blocks.circuits
  in
  List.iter
    (fun (label, task, walk_seed) ->
      let topo = Topo.copy task.Task.topo in
      let u = Topo.universe topo in
      let m = Topo.n_circuits topo in
      let split =
        match task.Task.routing with
        | `Ecmp -> `Equal
        | `Weighted -> `Capacity_weighted
      in
      let scratch = Ecmp.make_scratch u in
      let incs = Array.map (fun (c, _) -> Ecmp.make_inc u c) task.Task.compiled in
      let loads = Array.make m 0.0 in
      Array.iteri
        (fun d (_, scale) ->
          ignore (Ecmp.evaluate_rebuild ~scale ~split topo scratch incs.(d) ~loads))
        task.Task.compiled;
      let n = Array.length task.Task.blocks in
      let applied = Array.make n false in
      let g = Kutil.Prng.create ~seed:walk_seed in
      let changed = ref 0 in
      for _ = 1 to 2 * n do
        let b = Kutil.Prng.int g n in
        applied.(b) <- not applied.(b);
        set_block topo task.Task.blocks.(b) ~applied:applied.(b);
        Array.iter
          (fun (d, dirty) ->
            let _, scale = task.Task.compiled.(d) in
            let before = Array.copy loads in
            let marked = Kutil.Bitset.create m in
            ignore
              (Ecmp.evaluate_patch ~scale ~split topo scratch incs.(d) ~dirty
                 ~loads ~mark:(Kutil.Bitset.add marked));
            Array.iteri
              (fun j load ->
                if
                  not
                    (Int64.equal (Int64.bits_of_float load)
                       (Int64.bits_of_float before.(j)))
                then begin
                  incr changed;
                  if not (Kutil.Bitset.mem marked j) then
                    Alcotest.failf
                      "%s: block %d, class %d: circuit %d's load moved from \
                       %h to %h unmarked"
                      label b d j before.(j) load
                end)
              loads)
          task.Task.deps.(b)
      done;
      Alcotest.(check bool) (label ^ ": the walk moved some loads") true
        (!changed > 0))
    [
      ( "C-SSW",
        Task.of_scenario (Gen.build Gen.Ssw_forklift (Gen.params_c ())),
        11 );
      ("C-DMAG", Task.of_scenario (Gen.build Gen.Dmag (Gen.params_c ())), 12);
      ("OCS", Task.of_scenario (Gen.scenario_of_label "OCS"), 13);
    ]

(* Soundness of the dependency index: any class whose loads change when a
   block toggles must be listed in deps for that block.  Checked
   exhaustively, per block and per class, on a small scenario. *)
let test_deps_index_sound () =
  let task = random_task 4 in
  let topo = Topo.copy task.Task.topo in
  let n_circuits = Topo.n_circuits topo in
  let scratch = Ecmp.make_scratch (Topo.universe topo) in
  let eval_class (c, scale) =
    let loads = Array.make n_circuits 0.0 in
    let r = Ecmp.evaluate ~scale topo scratch c ~loads in
    (loads, r.Ecmp.stuck)
  in
  let toggle (b : Blocks.t) active =
    Array.iter (fun s -> Topo.set_switch_active topo s active) b.Blocks.switches;
    Array.iter
      (fun j -> Topo.set_circuit_active topo j active)
      b.Blocks.circuits
  in
  Array.iteri
    (fun bid (b : Blocks.t) ->
      let before = Array.map eval_class task.Task.compiled in
      toggle b false;
      let after = Array.map eval_class task.Task.compiled in
      toggle b true;
      let listed = Array.map (fun (d, _) -> d) task.Task.deps.(bid) in
      Array.iteri
        (fun d ((loads0, stuck0), (loads1, stuck1)) ->
          let changed =
            stuck0 <> stuck1
            || Array.exists2 (fun a b -> a <> b) loads0 loads1
          in
          if changed then
            Alcotest.(check bool)
              (Printf.sprintf "block %d affects class %d => listed" bid d)
              true
              (Array.exists (( = ) d) listed))
        (Array.map2 (fun a b -> (a, b)) before after))
    task.Task.blocks

(* The incremental flag reaches the checker: ~incremental:false must
   yield an inactive checker. *)
let test_escape_hatch () =
  let task = random_task 1 in
  Alcotest.(check bool) "disabled by argument" false
    (Constraint.incremental_active (Constraint.create ~incremental:false task));
  Alcotest.(check bool) "enabled by default" true
    (Constraint.incremental_active (Constraint.create task))

let suite =
  ( "incremental",
    [
      Alcotest.test_case "random tasks differential" `Slow
        test_differential_random;
      Alcotest.test_case "topology A differential" `Quick
        test_differential_label_a;
      Alcotest.test_case "topologies B,C differential" `Slow
        test_differential_labels_bc;
      Alcotest.test_case "SSW/DMAG differential" `Quick
        test_differential_other_migrations;
      Alcotest.test_case "random walk verdicts" `Quick
        test_random_walk_verdicts;
      Alcotest.test_case "patch marks every moved load" `Quick
        test_patch_marks_complete;
      Alcotest.test_case "dependency index sound" `Quick test_deps_index_sound;
      Alcotest.test_case "escape hatch" `Quick test_escape_hatch;
    ] )
