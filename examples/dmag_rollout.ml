(* DMAG migration (§2.4, Fig. 3c): introduce the Metro Aggregation layer
   between the FAUUs and the EBs.

   This migration *changes the topology*: MA switches that do not exist in
   the original network are onboarded while the direct FAUU-EB circuits
   are decommissioned per EB to free the ports (§2.3, §5).  Planners built
   on structural symmetry or residual capacity cannot express that — MRC
   and Janus refuse the task (the crosses of Fig. 9) while Klotski plans
   it.

     dune exec examples/dmag_rollout.exe *)

let () =
  let params = { (Gen.params_c ()) with Gen.mas = 24 } in
  let scenario = Gen.build Gen.Dmag params in
  let task = Task.of_scenario scenario in
  Format.printf "%a@." Task.pp_summary task;

  print_endline "baselines on a topology-changing migration:";
  List.iter
    (fun (name, result) ->
      match result.Planner.outcome with
      | Planner.Unsupported why -> Printf.printf "  %s: refused (%s)\n" name why
      | _ -> Format.printf "  %a@." Planner.pp_result result)
    [ ("MRC", Mrc.plan task); ("Janus", Janus.plan task) ];

  print_endline "Klotski on the same task:";
  match Astar.plan task with
  | { Planner.outcome = Planner.Found plan; _ } as r ->
      Format.printf "  %a@." Planner.pp_result r;
      List.iter
        (fun ph -> Format.printf "  %a@." Klotski.pp_phase ph)
        (Klotski.phases task plan);
      (match Plan.validate task plan with
      | Ok () -> print_endline "audit: plan is safe"
      | Error e -> Printf.printf "audit FAILED: %s\n" e)
  | r -> Format.printf "  %a@." Planner.pp_result r
