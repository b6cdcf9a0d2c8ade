(* Differential tests for incremental satisfiability: the demand–block
   dependency index plus per-demand delta evaluation must produce exactly
   the same verdicts, plans and costs as the full ECMP replay, for every
   planner. *)

let cfg ~incremental =
  Planner.with_incremental incremental (Planner.with_budget (Some 60.0))

(* Small randomized HGRID scenarios, as in the planner suite. *)
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
      let reference = plan (cfg ~incremental:false) task in
      let inc = plan (cfg ~incremental:true) task in
      Alcotest.(check string)
        (Printf.sprintf "%s: %s incremental" label name)
        (outcome_fingerprint reference.Planner.outcome)
        (outcome_fingerprint inc.Planner.outcome))
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

(* [Gen.params_c] has no MA layer, so its DMAG task strands volume once
   every block is done and has no plan; six MAs make it plannable. *)
let dmag_six_mas () = { (Gen.params_c ()) with Gen.mas = 6 }

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
        (Task.delta_profitable task);
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
      ( "C-DMAG, six MAs",
        Task.of_scenario (Gen.build Gen.Dmag (dmag_six_mas ())),
        true,
        6 );
      ("OCS", Task.of_scenario (Gen.scenario_of_label "OCS"), true, 7);
    ]

(* The same walk under k = 4 ensembles: the delta layer patches every
   matrix's loads and the checker scans each vector for θ.  A uniform
   surge (every class at 1.0, 1.2, 1.4 and 1.6 times its volume) runs at
   q = 1.0, where every matrix must be safe, and at q = 0.5, where two
   of the four must be; on C-DMAG the two quantiles part on some walked
   state, so an extra matrix decided it.  Under a uniform surge an extra
   matrix's verdict follows the base's maximum utilization, so loads
   that miss a patch can still read right; per-class factors drawn from
   [0.6, 1.6] move each matrix's hot spots on their own.  The quantile
   residual reads the second-best matrix's headroom at q = 0.5. *)
let test_ensemble_walk_verdicts () =
  List.iter
    (fun (label, task, walk_seed, must_differ) ->
      let n_classes = Array.length task.Task.compiled in
      let surge =
        Array.init 4 (fun m ->
            Array.make n_classes (1.0 +. (0.2 *. float_of_int m)))
      in
      let per_class =
        let g = Kutil.Prng.create ~seed:walk_seed in
        Array.init 4 (fun m ->
            Array.init n_classes (fun _ ->
                if m = 0 then 1.0 else 0.6 +. Kutil.Prng.float g 1.0))
      in
      let checkers (name, factors, quantile) =
        let e = Ensemble.create ~quantile factors in
        let t = Task.with_ensemble (Some e) task in
        ( Printf.sprintf "%s: %s q=%.1f" label name quantile,
          Constraint.create ~incremental:false t,
          Constraint.create ~incremental:true t )
      in
      let configs =
        List.map checkers
          [
            ("surge", surge, 1.0);
            ("surge", surge, 0.5);
            ("per-class", per_class, 0.5);
          ]
      in
      Alcotest.(check bool) (label ^ ": delta layer instantiated") true
        (Task.delta_profitable task);
      let n = Array.length task.Task.blocks in
      let applied = Array.make n false in
      let g = Kutil.Prng.create ~seed:walk_seed in
      let differ = ref 0 in
      for _ = 1 to 16 * n do
        let b = Kutil.Prng.int g n in
        List.iter
          (fun (_, full, inc) ->
            if applied.(b) then begin
              Constraint.unapply_block full b;
              Constraint.unapply_block inc b
            end
            else begin
              Constraint.apply_block full b;
              Constraint.apply_block inc b
            end)
          configs;
        applied.(b) <- not applied.(b);
        let last_block = if applied.(b) then Some b else None in
        let verdicts =
          List.map
            (fun (what, full, inc) ->
              let v = Constraint.current_ok ?last_block full in
              Alcotest.(check bool) (what ^ ": verdicts agree") v
                (Constraint.current_ok ?last_block inc);
              Alcotest.check (Alcotest.float 1e-9)
                (what ^ ": residuals agree")
                (Constraint.current_min_residual full)
                (Constraint.current_min_residual inc);
              v)
            configs
        in
        (* the two surge quantiles *)
        if not (Bool.equal (List.nth verdicts 0) (List.nth verdicts 1)) then
          incr differ
      done;
      if must_differ then
        Alcotest.(check bool) (label ^ ": the quantiles part somewhere") true
          (!differ > 0))
    [
      ("C-DMAG", Task.of_scenario (Gen.build Gen.Dmag (Gen.params_c ())), 6, true);
      ( "C-SSW",
        Task.of_scenario (Gen.build Gen.Ssw_forklift (Gen.params_c ())),
        5,
        false );
    ]

(* MRC's margin and the admission verdict are one verdict:
   [current_min_residual > neg_infinity] exactly when [current_ok] holds,
   on the full and the delta path, with a power budget and funneling on.
   On the SSW walk the port bound is tested first and breaks on every
   state that also breaks the budget, so no SSW step decides on power
   (234 port bound, 18 θ and 4 admitted over its 256 steps); A's walk
   under the same budget is the row whose verdicts name power, which
   [Constraint.verdict] confirms (40 admitted, 11 power and 13 θ over
   its 64 steps).  The DMAG budget never binds, and a funneling margin of
   1.0 rejects some of its walked states.  The OCS walk rewires
   circuits, and the last row holds the quantile margin to the verdict:
   a k = 4 ensemble of per-class factors from [0.6, 1.6] at q = 0.5. *)
let test_residual_matches_verdict () =
  let per_class (task : Task.t) =
    let n_classes = Array.length task.Task.compiled in
    let g = Kutil.Prng.create ~seed:6 in
    Ensemble.create ~quantile:0.5
      (Array.init 4 (fun m ->
           Array.init n_classes (fun _ ->
               if m = 0 then 1.0 else 0.6 +. Kutil.Prng.float g 1.0)))
  in
  List.iter
    (fun (label, sc, walk_seed, funneling, ensemble, power_binds) ->
      let power = Power.hall_model sc ~headroom:0.1 in
      let task = Task.of_scenario ~funneling ~power sc in
      let task = Task.with_ensemble (Option.map (fun f -> f task) ensemble) task in
      let checkers =
        [ Constraint.create ~incremental:false task; Constraint.create task ]
      in
      let n = Array.length task.Task.blocks in
      let applied = Array.make n false in
      let g = Kutil.Prng.create ~seed:walk_seed in
      let admitted = ref 0 and rejected = ref 0 and power_verdicts = ref 0 in
      for step = 1 to 8 * n do
        let b = Kutil.Prng.int g n in
        List.iter
          (fun ck ->
            if applied.(b) then Constraint.unapply_block ck b
            else Constraint.apply_block ck b)
          checkers;
        applied.(b) <- not applied.(b);
        let last_block = if applied.(b) then Some b else None in
        List.iter
          (fun ck ->
            let ok = Constraint.current_ok ?last_block ck in
            let residual = Constraint.current_min_residual ?last_block ck in
            if ok then incr admitted else incr rejected;
            (match Constraint.verdict ?last_block ck with
            | Constraint.Power -> incr power_verdicts
            | _ -> ());
            Alcotest.(check bool)
              (Printf.sprintf "%s step %d: margin agrees with the verdict" label step)
              ok
              (residual > neg_infinity))
          checkers
      done;
      Alcotest.(check bool) (label ^ ": the walk meets both verdicts") true
        (!admitted > 0 && !rejected > 0);
      if power_binds then
        Alcotest.(check bool) (label ^ ": the walk meets a power verdict") true
          (!power_verdicts > 0))
    [
      ("A", Gen.scenario_of_label "A", 5, 0.3, None, true);
      ("C-SSW", Gen.build Gen.Ssw_forklift (Gen.params_c ()), 5, 0.3, None, false);
      ("C-DMAG", Gen.build Gen.Dmag (Gen.params_c ()), 6, 1.0, None, false);
      ("OCS", Gen.scenario_of_label "OCS", 7, 0.3, None, false);
      ("C-DMAG, six MAs", Gen.build Gen.Dmag (dmag_six_mas ()), 6, 1.0, None, false);
      ( "C-DMAG, k = 4 at q = 0.5",
        Gen.build Gen.Dmag (Gen.params_c ()),
        6,
        1.0,
        Some per_class,
        false );
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

(* The dependency index against a per-candidate reference that does not
   rely on blocks being disjoint: per class, every candidate row
   ({!Ecmp.iter_candidates}) ORs its stage bit into per-switch and
   per-circuit masks, and a block's mask is the OR over its switches and
   circuits.  Same (class, mask) pairs, in class order, for every
   block. *)
let test_deps_match_reference () =
  List.iter
    (fun (label, task) ->
      let n_sw = Topo.n_switches task.Task.topo in
      let n_ci = Topo.n_circuits task.Task.topo in
      let reference =
        Array.map
          (fun (b : Blocks.t) ->
            Array.of_list
              (List.filter_map Fun.id
                 (Array.to_list
                    (Array.mapi
                       (fun d (c, _) ->
                         let sw = Array.make n_sw 0 and ci = Array.make n_ci 0 in
                         Ecmp.iter_candidates c ~f:(fun ~stage ~circuit ~prev ~next ->
                             let bit = 1 lsl min stage 61 in
                             ci.(circuit) <- ci.(circuit) lor bit;
                             sw.(prev) <- sw.(prev) lor bit;
                             sw.(next) <- sw.(next) lor bit);
                         let m =
                           Array.fold_left (fun m s -> m lor sw.(s)) 0 b.Blocks.switches
                         in
                         let m =
                           Array.fold_left (fun m j -> m lor ci.(j)) m b.Blocks.circuits
                         in
                         if m <> 0 then Some (d, m) else None)
                       task.Task.compiled))))
          task.Task.blocks
      in
      Array.iteri
        (fun b expected ->
          Alcotest.(check (array (pair int int)))
            (Printf.sprintf "%s: block %d's dependency row" label b)
            expected task.Task.deps.(b))
        reference)
    [
      ("C-SSW", Task.of_scenario (Gen.build Gen.Ssw_forklift (Gen.params_c ())));
      ("C-DMAG, six MAs", Task.of_scenario (Gen.build Gen.Dmag (dmag_six_mas ())));
      ("OCS-LITE", Task.of_scenario (Gen.scenario_of_label "OCS-LITE"));
    ]

(* The incremental flag reaches the checker: ~incremental:false must
   yield an inactive checker. *)
(* The five walks the delta-layer tests share: a label, the task,
   whether to start from every rewire applied, and the walk's seed. *)
let patch_walks () =
  [
    ( "C-SSW",
      Task.of_scenario (Gen.build Gen.Ssw_forklift (Gen.params_c ())),
      false,
      5 );
    ("C-DMAG, six MAs", Task.of_scenario (Gen.build Gen.Dmag (dmag_six_mas ())), false, 6);
    ("OCS, rewires applied", Task.of_scenario (Gen.scenario_of_label "OCS"), true, 7);
    ( "C-SSW, capacity-weighted",
      Task.of_scenario ~routing:`Weighted
        (Gen.build Gen.Ssw_forklift (Gen.params_c ())),
      false,
      8 );
    ( "C-DMAG, six MAs, k = 4",
      (let task = Task.of_scenario (Gen.build Gen.Dmag (dmag_six_mas ())) in
       let n_classes = Array.length task.Task.compiled in
       let g = Kutil.Prng.create ~seed:9 in
       let factors =
         Array.init 4 (fun m ->
             Array.init n_classes (fun _ ->
                 if m = 0 then 1.0 else 0.6 +. Kutil.Prng.float g 1.0))
       in
       Task.with_ensemble (Some (Ensemble.create ~quantile:0.5 factors)) task),
      false,
      9 );
  ]

(* The sparse patch against a fresh rebuild, at the level of what it
   recomputes.  Each walk toggles random blocks on an overlay (through a
   full checker that never evaluates), patches every class the toggled
   block's dependency row names with the stages it dirties, exactly as
   the delta layer does, from the toggled block's switches and circuits,
   and after every toggle rebuilds a fresh record of each grouped class
   on the same overlay.  Every row's share and verdict, every stage's
   entering volumes, live-row counts and useful set must equal the
   rebuild's, the floats bit for bit; the patched loads (every ensemble
   matrix's too) and the stuck volume drift by rounding only, so they
   agree within 1e-9.  The five walks cover the equal split, the
   capacity-weighted one, DMAG's skip carriers, OCS alternative rows
   (starting from the state with every rewire applied) and a k = 4
   ensemble's deposits. *)
let test_patch_matches_rebuild () =
  let same_bits what reference got =
    if Array.length reference <> Array.length got then
      Alcotest.failf "%s: %d entries, a rebuild has %d" what (Array.length got)
        (Array.length reference);
    Array.iteri
      (fun i x ->
        if not (Float.equal x got.(i)) then
          Alcotest.failf "%s: entry %d reads %h, a rebuild %h" what i got.(i) x)
      reference
  in
  let close what reference got =
    Array.iteri
      (fun i x ->
        if Float.abs (x -. got.(i)) > 1e-9 then
          Alcotest.failf "%s: entry %d reads %.17g, a rebuild %.17g" what i got.(i) x)
      reference
  in
  List.iter
    (fun (label, task, rewired, walk_seed) ->
      Alcotest.(check bool) (label ^ ": delta layer instantiated") true
        (Task.delta_profitable task);
      let ck = Constraint.create ~incremental:false task in
      let n = Array.length task.Task.blocks in
      let applied =
        Array.map
          (fun (b : Blocks.t) -> rewired && Action.affects_wiring b.Blocks.action)
          task.Task.blocks
      in
      Array.iteri (fun b a -> if a then Constraint.apply_block ck b) applied;
      let topo = Constraint.overlay ck in
      let u = Task.universe task in
      let m = Universe.n_circuits u in
      let split =
        match task.Task.routing with `Ecmp -> `Equal | `Weighted -> `Capacity_weighted
      in
      let factors d =
        match task.Task.ensemble with
        | None -> [||]
        | Some e ->
            Array.init (Ensemble.k e - 1) (fun x ->
                Ensemble.factor e ~matrix:(x + 1) ~cls:d)
      in
      let n_extra = Array.length (factors 0) in
      let grouped =
        List.filter_map
          (fun d -> Option.map (fun g -> (d, g)) task.Task.groups.(d))
          (List.init (Array.length task.Task.compiled) Fun.id)
      in
      let scratch = Ecmp.make_scratch u in
      let toggled = Ecmp.make_toggles u ~capacity:0 and moved = Topo.circuit_marks topo in
      (* One state's loads: the grouped classes' base deposits, and each
         extra matrix's. *)
      let fresh_loads () = Array.init (1 + n_extra) (fun _ -> Array.make m 0.0) in
      let aux_of lv d = Array.mapi (fun x f -> (lv.(x + 1), f)) (factors d) in
      let rebuild_all lv =
        List.map
          (fun (d, g) ->
            let c, scale = task.Task.compiled.(d) in
            let st = Ecmp.make_inc u c g in
            let stuck =
              Ecmp.evaluate_rebuild ~scale ~split ~aux:(aux_of lv d) topo scratch st
                ~loads:lv.(0)
            in
            (d, st, stuck))
          grouped
      in
      let lv = fresh_loads () in
      let incs = rebuild_all lv in
      let masks = Array.make (Array.length task.Task.compiled) 0 in
      let g = Kutil.Prng.create ~seed:walk_seed in
      for step = 1 to 8 * n do
        let b = Kutil.Prng.int g n in
        if applied.(b) then Constraint.unapply_block ck b
        else Constraint.apply_block ck b;
        applied.(b) <- not applied.(b);
        let blk = task.Task.blocks.(b) in
        Ecmp.note_toggled toggled ~switches:blk.Blocks.switches
          ~circuits:blk.Blocks.circuits;
        Array.iter (fun (d, mask) -> masks.(d) <- masks.(d) lor mask) task.Task.deps.(b);
        List.iter
          (fun (d, st, _) ->
            if masks.(d) <> 0 then begin
              ignore
                (Ecmp.evaluate_patch ~split ~aux:(aux_of lv d) topo scratch st
                   ~dirty:masks.(d) ~toggled ~moved ~loads:lv.(0));
              masks.(d) <- 0
            end)
          incs;
        Ecmp.clear_toggles toggled;
        Bytes.fill moved 0 (Bytes.length moved) '\000';
        let lv' = fresh_loads () in
        List.iter2
          (fun (d, st, _) (_, st', stuck') ->
            let what part = Printf.sprintf "%s step %d class %d: %s" label step d part in
            for k = 0 to Ecmp.n_stages (fst task.Task.compiled.(d)) - 1 do
              let r = Ecmp.recorded st ~stage:k and r' = Ecmp.recorded st' ~stage:k in
              let part p = what (Printf.sprintf "stage %d %s" k p) in
              same_bits (part "shares") r'.Ecmp.shares r.Ecmp.shares;
              same_bits (part "entering volumes") r'.Ecmp.volumes r.Ecmp.volumes;
              Alcotest.(check string) (part "verdicts")
                (Bytes.to_string r'.Ecmp.verdicts) (Bytes.to_string r.Ecmp.verdicts);
              Alcotest.(check (array int)) (part "live-row counts") r'.Ecmp.live_counts
                r.Ecmp.live_counts;
              Alcotest.(check (list int)) (part "useful set") r'.Ecmp.useful_switches
                r.Ecmp.useful_switches
            done;
            Alcotest.check (Alcotest.float 1e-9) (what "stuck") stuck'
              (Ecmp.class_stuck st))
          incs (rebuild_all lv');
        Array.iteri
          (fun x l ->
            close (Printf.sprintf "%s step %d: matrix %d loads" label step x) l lv.(x))
          lv'
      done)
    (patch_walks ())

(* The kept θ verdicts against a from-scratch count.  Each walk toggles
   one to three random blocks between two evaluations (as a ports or
   power rejection lets toggles pile up), evaluates, and then each load
   vector's kept count of circuits over θ must equal [Topo.theta_count]
   on the same loads, and θ must hold exactly when [Topo.theta_ok] says
   so.  Every walk must reach states over θ, or the counts would prove
   little. *)
let test_theta_kept () =
  List.iter
    (fun (label, task, rewired, walk_seed) ->
      let ck = Constraint.create task in
      let n = Array.length task.Task.blocks in
      let applied =
        Array.map
          (fun (b : Blocks.t) -> rewired && Action.affects_wiring b.Blocks.action)
          task.Task.blocks
      in
      Array.iteri (fun b a -> if a then Constraint.apply_block ck b) applied;
      let topo = Constraint.overlay ck in
      let theta = task.Task.theta +. 1e-9 in
      let g = Kutil.Prng.create ~seed:walk_seed in
      let over_seen = ref 0 in
      for step = 0 to 8 * n do
        if step > 0 then
          for _ = 1 to 1 + Kutil.Prng.int g 3 do
            let b = Kutil.Prng.int g n in
            if applied.(b) then Constraint.unapply_block ck b
            else Constraint.apply_block ck b;
            applied.(b) <- not applied.(b)
          done;
        ignore (Constraint.evaluate_current ck);
        let kept = Constraint.theta_kept ck in
        Alcotest.(check bool) (label ^ ": the delta layer keeps θ") true
          (Array.length kept > 0);
        Array.iteri
          (fun v (loads, n_over) ->
            let what = Printf.sprintf "%s step %d vector %d" label step v in
            let fresh =
              Topo.theta_count topo loads ~theta ~over:(Topo.circuit_marks topo)
            in
            Alcotest.(check int) (what ^ ": circuits over θ") fresh n_over;
            Alcotest.(check bool) (what ^ ": θ verdict")
              (Topo.theta_ok topo loads ~theta) (n_over = 0);
            over_seen := !over_seen + n_over)
          kept
      done;
      Alcotest.(check bool) (label ^ ": some state is over θ") true (!over_seen > 0))
    (patch_walks ())

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
      Alcotest.test_case "ensemble random walk verdicts" `Quick
        test_ensemble_walk_verdicts;
      Alcotest.test_case "residual agrees with verdict" `Quick
        test_residual_matches_verdict;
      Alcotest.test_case "dependency index sound" `Quick test_deps_index_sound;
      Alcotest.test_case "dependency index matches per-candidate reference"
        `Quick test_deps_match_reference;
      Alcotest.test_case "escape hatch" `Quick test_escape_hatch;
      Alcotest.test_case "sparse patch matches a fresh rebuild" `Quick
        test_patch_matches_rebuild;
      Alcotest.test_case "kept θ counts match a fresh count" `Quick test_theta_kept;
    ] )
