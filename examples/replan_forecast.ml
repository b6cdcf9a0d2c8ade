(* Replanning with demand forecasts (§7.1) and traffic surges (§7.2).

   Migrations last weeks; demand grows underneath them.  The paper's
   deployment lesson: run the forecast after every migration step and
   re-plan the remainder with the updated demand.  This example plans
   topology C, "executes" the first phase, applies a forecast in which one
   service's traffic spikes (the warm-storage incident of §7.2), shows the
   original plan would now violate safety, and replans the remainder.

     dune exec examples/replan_forecast.exe *)

let () =
  let scenario = Gen.scenario_of_label "C" in
  let task = Task.of_scenario scenario in
  let plan =
    match Astar.plan task with
    | { Planner.outcome = Planner.Found p; _ } -> p
    | _ -> failwith "initial planning failed"
  in
  Format.printf "initial @[%a@]@." (Plan.pp task) plan;

  (* Execute the first phase (the first run of same-type actions). *)
  let first_phase_len = match plan.Plan.runs with (_, k) :: _ -> k | [] -> 0 in
  let executed = List.filteri (fun i _ -> i < first_phase_len) plan.Plan.blocks in
  Printf.printf "executed phase 1 (%d blocks)\n" (List.length executed);

  (* Two months pass: organic growth plus a storage-backup surge on one
     east-west class (the incident of §7.2). *)
  let prng = Kutil.Prng.create ~seed:7 in
  let forecast =
    Forecast.create ~weekly_growth:0.03 ~spike_probability:0.0 ~prng ()
  in
  let scales =
    Array.of_list
      (List.map
         (fun (d : Demand.t) ->
           let growth =
             Forecast.scale_at forecast ~week:8 ~class_name:d.Demand.name
           in
           if d.Demand.name = "ew-dc0" then growth *. 1.2 else growth)
         task.Task.demands)
  in
  Printf.printf "forecast at week 8: growth %.2fx, ew-dc0 surged %.2fx\n"
    (Forecast.scale_at forecast ~week:8 ~class_name:"egress-dc0")
    scales.(0);

  (* The rest of the original plan is no longer guaranteed safe. *)
  let remaining = List.filteri (fun i _ -> i >= first_phase_len) plan.Plan.blocks in
  let surged = Task.scale_demands task scales in
  let remainder, mapping = Klotski.remainder_task surged ~executed in
  let old_to_new b =
    let found = ref (-1) in
    Array.iteri (fun i orig -> if orig = b then found := i) mapping;
    !found
  in
  let old_rest = Plan.make remainder (List.map old_to_new remaining) in
  (match Plan.validate remainder old_rest with
  | Ok () -> print_endline "old remainder still safe under the new demand"
  | Error e -> Printf.printf "old remainder now UNSAFE: %s\n" e);

  (* Replan the remainder under the new forecast. *)
  match Klotski.replan task ~executed ~demand_scales:scales with
  | { Planner.outcome = Planner.Found plan'; _ }, remainder', _ ->
      Format.printf "replanned @[%a@]@." (Plan.pp remainder') plan';
      (match Plan.validate remainder' plan' with
      | Ok () -> print_endline "audit: replanned remainder is safe"
      | Error e -> Printf.printf "audit FAILED: %s\n" e)
  | r, _, _ -> Format.printf "replan failed: %a@." Planner.pp_result r
