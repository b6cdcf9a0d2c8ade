(* Tests for the plan representation and the Klotski facade. *)

let task_a () = Task.of_scenario (Gen.scenario_of_label "A")

let planned task =
  match Astar.plan task with
  | { Planner.outcome = Planner.Found p; _ } -> p
  | _ -> Alcotest.fail "planning failed"

let test_make_and_runs () =
  let task = task_a () in
  let p = planned task in
  Alcotest.(check int) "one step per block" (Task.total_blocks task)
    (Plan.length p);
  Alcotest.(check int) "runs sum to steps" (Plan.length p)
    (List.fold_left (fun acc (_, k) -> acc + k) 0 p.Plan.runs);
  Alcotest.check (Alcotest.float 1e-9) "cost equals run count at alpha 0"
    (float_of_int (List.length p.Plan.runs))
    p.Plan.cost

let test_make_rejects_bad_ids () =
  let task = task_a () in
  Alcotest.check_raises "unknown block"
    (Invalid_argument "Plan.make: unknown block id") (fun () ->
      ignore (Plan.make task [ 999 ]))

let test_validate_catches_reorder () =
  let task = task_a () in
  let p = planned task in
  (* Reversing the plan violates safety (undrains before their ports are
     freed, or drains beyond theta). *)
  let reversed = Plan.make task (List.rev p.Plan.blocks) in
  match Plan.validate task reversed with
  | Error _ -> ()
  | Ok () ->
      (* A reversed plan may occasionally still be safe; then at least the
         original must validate too. *)
      (match Plan.validate task p with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)

let test_validate_catches_cost_lie () =
  let task = task_a () in
  let p = planned task in
  let lied = { p with Plan.cost = p.Plan.cost +. 1.0 } in
  match Plan.validate task lied with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "wrong recorded cost accepted"

let test_states_progression () =
  let task = task_a () in
  let p = planned task in
  let states = Plan.states task p in
  Alcotest.(check int) "one state per step" (Plan.length p) (List.length states);
  (match List.rev states with
  | last :: _ ->
      Alcotest.(check (array int)) "last state is the target" task.Task.counts
        last
  | [] -> Alcotest.fail "empty states");
  (* Totals increase by exactly one per step. *)
  List.iteri
    (fun i v ->
      Alcotest.(check int) "monotone totals" (i + 1) (Kutil.Vec_key.total v))
    states

let test_phases () =
  let task = task_a () in
  let p = planned task in
  let phases = Klotski.phases task p in
  Alcotest.(check int) "one phase per run" (List.length p.Plan.runs)
    (List.length phases);
  List.iteri
    (fun i (ph : Klotski.phase) ->
      Alcotest.(check int) "indices are 1-based" (i + 1) ph.Klotski.index)
    phases;
  let total_switches =
    List.fold_left (fun acc ph -> acc + ph.Klotski.switches_touched) 0 phases
  in
  let expected =
    Array.fold_left
      (fun acc (b : Blocks.t) -> acc + Array.length b.Blocks.switches)
      0 task.Task.blocks
  in
  Alcotest.(check int) "phases cover all switches" expected total_switches;
  match List.rev phases with
  | last :: _ ->
      Alcotest.(check (array int)) "final phase reaches the target"
        task.Task.counts last.Klotski.state
  | [] -> Alcotest.fail "no phases"

let test_remainder_task () =
  let task = task_a () in
  let p = planned task in
  let k = match p.Plan.runs with (_, k) :: _ -> k | [] -> 0 in
  let executed = List.filteri (fun i _ -> i < k) p.Plan.blocks in
  let remainder, mapping = Klotski.remainder_task task ~executed in
  Alcotest.(check int) "remaining blocks"
    (Task.total_blocks task - k)
    (Task.total_blocks remainder);
  Alcotest.(check int) "mapping arity" (Task.total_blocks remainder)
    (Array.length mapping);
  (* The mapping points at blocks that were not executed. *)
  Array.iter
    (fun orig ->
      Alcotest.(check bool) "mapped block not executed" false
        (List.mem orig executed))
    mapping;
  (* Completing the remainder with the rest of the original plan works. *)
  let rest = List.filteri (fun i _ -> i >= k) p.Plan.blocks in
  let inverse = Hashtbl.create 16 in
  Array.iteri (fun idx orig -> Hashtbl.replace inverse orig idx) mapping;
  let rest' = List.map (Hashtbl.find inverse) rest in
  match Plan.validate remainder (Plan.make remainder rest') with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_remainder_rejects_bad_input () =
  let task = task_a () in
  Alcotest.check_raises "duplicate executed"
    (Invalid_argument "Klotski.remainder_task: block executed twice") (fun () ->
      ignore (Klotski.remainder_task task ~executed:[ 0; 0 ]));
  Alcotest.check_raises "bad id"
    (Invalid_argument "Klotski.remainder_task: bad block id") (fun () ->
      ignore (Klotski.remainder_task task ~executed:[ -3 ]))

(* A remainder task carries its parent's dependency rows through the
   block re-indexing.  At every prefix of A*'s plan they, and the
   lowering, must equal what [Task.relower] rebuilds for the same
   remainder, and both remainders must replan alike.  OCS-LITE is the
   rewire case: its executed prefixes move circuit endpoints. *)
let test_remainder_carries_index () =
  List.iter
    (fun (label, task) ->
      let p = planned task in
      for k = 0 to Plan.length p do
        let what part = Printf.sprintf "%s, prefix %d: %s" label k part in
        let executed = List.filteri (fun i _ -> i < k) p.Plan.blocks in
        let carried, _ = Klotski.remainder_task task ~executed in
        let rebuilt = Task.relower carried in
        Alcotest.(check bool) (what "deps") true
          (carried.Task.deps = rebuilt.Task.deps);
        Alcotest.(check int) (what "state words") rebuilt.Task.state_word_count
          carried.Task.state_word_count;
        Alcotest.(check bool) (what "block prefixes") true
          (carried.Task.block_prefix = rebuilt.Task.block_prefix);
        if k < Plan.length p then begin
          let pc = planned carried and pr = planned rebuilt in
          Alcotest.check (Alcotest.float 0.0) (what "replanned cost")
            pr.Plan.cost pc.Plan.cost;
          Alcotest.(check (list int)) (what "replanned blocks") pr.Plan.blocks
            pc.Plan.blocks
        end
      done)
    [
      ("C-SSW", Task.of_scenario (Gen.build Gen.Ssw_forklift (Gen.params_c ())));
      ( "C-DMAG",
        Task.of_scenario
          (Gen.build Gen.Dmag { (Gen.params_c ()) with Gen.mas = 6 }) );
      ("OCS-LITE", Task.of_scenario (Gen.scenario_of_label "OCS-LITE"));
    ]

let test_replan_roundtrip () =
  let task = task_a () in
  let p = planned task in
  let k = match p.Plan.runs with (_, k) :: _ -> k | [] -> 0 in
  let executed = List.filteri (fun i _ -> i < k) p.Plan.blocks in
  let scales = Array.make (Array.length task.Task.compiled) 1.05 in
  match Klotski.replan task ~executed ~demand_scales:scales with
  | { Planner.outcome = Planner.Found p'; _ }, remainder, _ -> (
      match Plan.validate remainder p' with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
  | r, _, _ ->
      Alcotest.fail
        (Format.asprintf "replan should succeed at +5%%: %a" Planner.pp_result r)

let test_planner_dispatch () =
  let task = task_a () in
  List.iter
    (fun kind ->
      let r = Klotski.plan ~planner:kind task in
      Alcotest.(check string) "dispatch name" (Klotski.planner_name kind)
        r.Planner.planner)
    [
      Klotski.Astar; Klotski.Dp; Klotski.Mrc; Klotski.Janus;
      Klotski.Exhaustive; Klotski.Greedy;
    ]

(* Appended: circuit-group phases (DMAG) expose circuits_touched. *)
let test_dmag_phases_count_circuits () =
  let p = { (Gen.params_a ()) with Gen.mas = 6 } in
  let task = Task.of_scenario (Gen.build Gen.Dmag p) in
  match Astar.plan task with
  | { Planner.outcome = Planner.Found plan; _ } ->
      let phases = Klotski.phases task plan in
      Alcotest.(check bool) "some phase drains standalone circuits" true
        (List.exists (fun ph -> ph.Klotski.circuits_touched > 0) phases)
  | _ -> Alcotest.fail "DMAG planning failed"

let extra_suite =
  [
    Alcotest.test_case "DMAG phases count circuits" `Quick
      test_dmag_phases_count_circuits;
  ]

let suite =
  ( "plan+klotski",
    [
      Alcotest.test_case "make and runs" `Quick test_make_and_runs;
      Alcotest.test_case "bad block ids rejected" `Quick test_make_rejects_bad_ids;
      Alcotest.test_case "validation catches reordering" `Quick
        test_validate_catches_reorder;
      Alcotest.test_case "validation catches cost lies" `Quick
        test_validate_catches_cost_lie;
      Alcotest.test_case "state progression" `Quick test_states_progression;
      Alcotest.test_case "phase expansion" `Quick test_phases;
      Alcotest.test_case "remainder task" `Quick test_remainder_task;
      Alcotest.test_case "remainder input validation" `Quick
        test_remainder_rejects_bad_input;
      Alcotest.test_case "remainder carries the dependency index" `Quick
        test_remainder_carries_index;
      Alcotest.test_case "replan round trip" `Quick test_replan_roundtrip;
      Alcotest.test_case "planner dispatch" `Slow test_planner_dispatch;
    ]
    @ extra_suite )
