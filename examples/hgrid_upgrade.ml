(* HGRID V1 -> V2 migration across a multi-building region (§2.4, Fig. 3a).

   Plans topology C's fabric-aggregation upgrade with all planners,
   contrasts their plan costs and planning effort, and then walks the
   optimal plan phase by phase showing how utilization and port pressure
   evolve through the intermediate topologies — the quantities the safety
   constraints (Eq. 4-6) guard.

     dune exec examples/hgrid_upgrade.exe *)

let print_result r = Format.printf "  %a@." Planner.pp_result r

let () =
  let scenario = Gen.scenario_of_label "C" in
  let task = Task.of_scenario scenario in
  Format.printf "%a@." Task.pp_summary task;

  print_endline "planner comparison:";
  let config = Planner.with_budget (Some 120.0) in
  let astar = Astar.plan ~config task in
  print_result astar;
  print_result (Dp.plan ~config task);
  print_result (Mrc.plan ~config task);
  print_result (Janus.plan ~config task);

  match astar.Planner.outcome with
  | Planner.Found plan ->
      print_endline "utilization through the optimal plan:";
      let ck = Constraint.create task in
      List.iteri
        (fun i v ->
          Constraint.move_to ck v;
          let s = Constraint.evaluate_current ck in
          Printf.printf
            "  after step %2d: max util %.3f, stuck %.2f Tbps, port \
             violations %d\n"
            (i + 1) s.Constraint.max_util s.Constraint.stuck
            s.Constraint.port_violations)
        (Plan.states task plan);
      Format.printf "%a@." (Plan.pp task) plan
  | Planner.Infeasible | Planner.Timeout _ | Planner.Unsupported _ ->
      print_endline "A* did not produce a plan"
