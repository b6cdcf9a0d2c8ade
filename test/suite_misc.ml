(* Smaller cross-cutting checks: result plumbing, pretty-printers, and
   diagnostic orderings that the other suites do not cover. *)

let test_planner_result_helpers () =
  let plan =
    match Astar.plan (Task.of_scenario (Gen.scenario_of_label "A")) with
    | { Planner.outcome = Planner.Found p; _ } -> p
    | _ -> Alcotest.fail "planning failed"
  in
  let stats =
    { Planner.expanded = 1; generated = 2; sat_checks = 3; cache_hits = 4;
      check_seconds = 0.1; elapsed = 0.5 }
  in
  let found = { Planner.planner = "x"; outcome = Planner.Found plan; stats } in
  Alcotest.(check (option (float 1e-9))) "cost of Found" (Some plan.Plan.cost)
    (Planner.cost_of found);
  Alcotest.(check (option (float 1e-9))) "cost of Infeasible" None
    (Planner.cost_of { found with Planner.outcome = Planner.Infeasible });
  Alcotest.(check (option (float 1e-9))) "cost of Timeout Some"
    (Some plan.Plan.cost)
    (Planner.cost_of
       { found with Planner.outcome = Planner.Timeout (Some plan) })

let test_result_pretty_printing () =
  let stats =
    { Planner.expanded = 1; generated = 2; sat_checks = 3; cache_hits = 4;
      check_seconds = 0.1; elapsed = 0.5 }
  in
  let render outcome =
    Format.asprintf "%a" Planner.pp_result
      { Planner.planner = "P"; outcome; stats }
  in
  Alcotest.(check bool) "infeasible mentioned" true
    (String.length (render Planner.Infeasible) > 0);
  let unsupported = render (Planner.Unsupported "why not") in
  Alcotest.(check bool) "unsupported carries the reason" true
    (String.length unsupported > String.length "why not")

let test_hottest_descending () =
  let task = Task.of_scenario (Gen.scenario_of_label "B") in
  let ck = Constraint.create task in
  let s = Constraint.evaluate_current ck in
  let rec descending = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b -. 1e-12 && descending rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "hottest sorted" true (descending s.Constraint.hottest);
  Alcotest.(check bool) "at most five" true
    (List.length s.Constraint.hottest <= 5);
  (match s.Constraint.hottest with
  | (_, top) :: _ ->
      Alcotest.check (Alcotest.float 1e-9) "head equals max_util"
        s.Constraint.max_util top
  | [] -> Alcotest.fail "no hot circuits on a loaded topology")

let test_phase_pretty_printing () =
  let task = Task.of_scenario (Gen.scenario_of_label "A") in
  match Astar.plan task with
  | { Planner.outcome = Planner.Found p; _ } ->
      List.iter
        (fun ph ->
          let text = Format.asprintf "%a" Klotski.pp_phase ph in
          Alcotest.(check bool) "mentions the phase index" true
            (String.length text > 10))
        (Klotski.phases task p)
  | _ -> Alcotest.fail "planning failed"

let test_simulate_event_printing () =
  List.iter
    (fun e ->
      Alcotest.(check bool) "renders" true
        (String.length (Format.asprintf "%a" Simulate.pp_event e) > 0))
    [
      Simulate.Step_completed { week = 1; block = 0; label = "b" };
      Simulate.Step_failed { week = 1; block = 0; label = "b" };
      Simulate.Audit_failed { week = 2; block = 1; reason = "r" };
      Simulate.Replanned { week = 2; cost = 3.0; steps = 4 };
      Simulate.Completed { week = 5 };
      Simulate.Aborted { week = 6; reason = "r" };
    ]

let test_kind_strings () =
  Alcotest.(check string) "hgrid" "HGRID V1->V2"
    (Gen.kind_to_string Gen.Hgrid_v1_to_v2);
  Alcotest.(check string) "forklift" "SSW Forklift"
    (Gen.kind_to_string Gen.Ssw_forklift);
  Alcotest.(check string) "dmag" "DMAG" (Gen.kind_to_string Gen.Dmag)

let test_state_space_size () =
  Alcotest.check (Alcotest.float 1e-9) "empty lattice" 1.0
    (Compact.state_space_size ~counts:[||]);
  Alcotest.check (Alcotest.float 1e-9) "product" 12.0
    (Compact.state_space_size ~counts:[| 1; 2; 1 |]);
  (* Huge counts do not overflow (the w/o-OB diagnostic). *)
  Alcotest.(check bool) "no overflow" true
    (Compact.state_space_size ~counts:(Array.make 8 200) > 1e15)

let test_stats_of_planner_runs_consistent () =
  (* generated >= expanded and checks + hits = generated-ish invariants. *)
  let task = Task.of_scenario (Gen.scenario_of_label "B") in
  let r = Astar.plan task in
  let s = r.Planner.stats in
  Alcotest.(check bool) "generated >= expanded" true
    (s.Planner.generated >= s.Planner.expanded);
  Alcotest.(check bool) "every generation resolved by check or hit" true
    (s.Planner.sat_checks + s.Planner.cache_hits >= s.Planner.generated)

let suite =
  ( "misc",
    [
      Alcotest.test_case "planner result helpers" `Quick
        test_planner_result_helpers;
      Alcotest.test_case "result pretty printing" `Quick
        test_result_pretty_printing;
      Alcotest.test_case "hottest circuits ordered" `Quick
        test_hottest_descending;
      Alcotest.test_case "phase pretty printing" `Quick
        test_phase_pretty_printing;
      Alcotest.test_case "simulator event printing" `Quick
        test_simulate_event_printing;
      Alcotest.test_case "kind strings" `Quick test_kind_strings;
      Alcotest.test_case "lattice size" `Quick test_state_space_size;
      Alcotest.test_case "planner stats invariants" `Quick
        test_stats_of_planner_runs_consistent;
    ] )
