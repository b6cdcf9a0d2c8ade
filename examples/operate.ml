(* Operating a migration end-to-end (§7.1-7.2): weekly forecasts, push
   pipeline failures, pre-step audits and replanning, simulated over the
   whole duration of a topology-B HGRID upgrade.

     dune exec examples/operate.exe *)

let () =
  let scenario = Gen.scenario_of_label "B" in
  let task = Task.of_scenario scenario in
  let plan =
    match Astar.plan task with
    | { Planner.outcome = Planner.Found p; _ } -> p
    | _ -> failwith "planning failed"
  in
  Printf.printf "plan: %d steps, cost %g\n" (Plan.length plan) plan.Plan.cost;

  let prng = Kutil.Prng.create ~seed:2024 in
  let forecast =
    Forecast.create ~weekly_growth:0.02 ~spike_probability:0.08
      ~spike_magnitude:0.4 ~prng:(Kutil.Prng.split prng) ()
  in
  let outcome =
    Simulate.run
      ~config:
        {
          Simulate.default_config with
          Simulate.failure_probability = 0.15;
          steps_per_week = 2;
        }
      ~prng ~forecast task plan
  in
  List.iter (fun e -> Format.printf "  %a@." Simulate.pp_event e) outcome.Simulate.events;
  Printf.printf
    "summary: %s in %d weeks, %d pipeline failures survived, %d replans\n"
    (if outcome.Simulate.completed then "completed" else "did not complete")
    outcome.Simulate.weeks outcome.Simulate.failures outcome.Simulate.replans
