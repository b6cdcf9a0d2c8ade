(* Temporary routing configurations for mixed generations (§7.1).

   When HGRID V1 and V2 coexist with different per-circuit capacities,
   plain ECMP splits per next-hop and immediately overloads the
   smaller-capacity circuits — the production outage the paper describes
   ("high packet loss even when draining a single link in V1 ... the old
   generation could not provide sufficient capacity").  Operators fixed it
   with temporary routing configurations that balance traffic between the
   generations; here that is the capacity-weighted routing mode, and it
   turns an unplannable migration into a plannable one.

     dune exec examples/routing_config.exe *)

let () =
  (* A variant of topology B whose V2 circuits have 60% of V1's capacity
     (per circuit; total V2 capacity is still larger via grid count). *)
  let p = Gen.params_b () in
  let p = { p with Gen.cap_ssw_fadu_v2 = p.Gen.cap_ssw_fadu_v1 *. 0.6 } in
  let scenario = Gen.build Gen.Hgrid_v1_to_v2 p in

  let attempt name routing =
    let task = Task.of_scenario ~theta:0.7 ~routing scenario in
    (match Klotski.plan task with
    | { Planner.outcome = Planner.Found plan; Planner.stats; _ } ->
        Printf.printf "%-22s plan found: cost %g (%.2fs)\n" name plan.Plan.cost
          stats.Planner.elapsed
    | { Planner.outcome = Planner.Infeasible; _ } ->
        Printf.printf "%-22s no safe plan exists\n" name
    | r -> Format.printf "%-22s %a@." name Planner.pp_result r);
    (* Show the utilization right after onboarding one V2 grid. *)
    let ck = Constraint.create task in
    let v = Kutil.Vec_key.zeros (Action.Set.cardinal task.Task.actions) in
    Array.iteri
      (fun a _ ->
        if (Action.Set.get task.Task.actions a).Action.op = Action.Undrain
        then v.(a) <- 1)
      task.Task.counts;
    Constraint.move_to ck v;
    let s = Constraint.evaluate_current ck in
    Printf.printf "%-22s   max util after first V2 grids: %.3f\n" "" s.Constraint.max_util
  in
  print_endline "V2 circuits at 60% of V1 capacity, theta = 0.70:";
  attempt "plain ECMP:" `Ecmp;
  attempt "weighted routing:" `Weighted;

  (* Max-flow tells the two apart: the capacity exists, only plain ECMP
     cannot use it.  Check a mid-migration state with every generation
     energized. *)
  let task = Task.of_scenario ~theta:0.7 scenario in
  let topo = Topo.copy scenario.Gen.topo in
  List.iter (fun s -> Topo.set_switch_active topo s true)
    scenario.Gen.undrain_switches;
  Array.iter
    (fun (c : Circuit.t) ->
      if
        Topo.switch_active topo c.Circuit.lo
        && Topo.switch_active topo c.Circuit.hi
      then Topo.set_circuit_active topo c.Circuit.id true)
    (Topo.circuits topo);
  let l = scenario.Gen.layout in
  let feasible =
    List.for_all
      (Maxflow.class_feasible topo ~rsws_by_dc:l.Gen.rsws_by_dc
         ~ebbs:l.Gen.ebbs ~utilization_bound:0.7)
      task.Task.demands
  in
  Printf.printf
    "max-flow verdict on full coexistence: %s - the infeasibility above is \
     ECMP-induced\n"
    (if feasible then "every class routable below theta" else "capacity short")
