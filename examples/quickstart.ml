(* Quickstart: plan the smallest HGRID V1 -> V2 migration of the paper's
   topology family (topology A) and print the resulting phases.

     dune exec examples/quickstart.exe *)

let () =
  (* 1. Build a migration scenario: topology A, HGRID V1 -> V2. *)
  let scenario = Gen.scenario_of_label "A" in
  let st = Gen.stats scenario in
  Printf.printf "Scenario %s: %d switches, %d circuits, %d actions\n"
    scenario.Gen.name st.Gen.orig_switches st.Gen.orig_circuits st.Gen.actions;

  (* 2. Turn it into a planning task: operation blocks, calibrated traffic
     demands, utilization bound theta = 75%. *)
  let task = Task.of_scenario scenario in
  Format.printf "%a@." Task.pp_summary task;

  (* 3. Plan with Klotski-A* (and cross-check with Klotski-DP). *)
  let result = Klotski.plan ~planner:Klotski.Astar task in
  Format.printf "%a@." Planner.pp_result result;
  let dp = Klotski.plan ~planner:Klotski.Dp task in
  Format.printf "%a@." Planner.pp_result dp;

  (* 4. Print the migration plan as EDP-Lite phases and audit it. *)
  match result.Planner.outcome with
  | Planner.Found plan ->
      List.iter
        (fun ph -> Format.printf "  %a@." Klotski.pp_phase ph)
        (Klotski.phases task plan);
      (match Plan.validate task plan with
      | Ok () -> print_endline "plan audit: every intermediate state is safe"
      | Error e -> Printf.printf "plan audit FAILED: %s\n" e)
  | Planner.Infeasible -> print_endline "no safe plan exists"
  | Planner.Timeout _ -> print_endline "planner timed out"
  | Planner.Unsupported why -> Printf.printf "unsupported: %s\n" why
