(* SSW Forklift migration (§2.4, Fig. 3b): replace every spine switch of
   one datacenter with new-generation hardware.

   The FSW port budget forbids old and new spines from coexisting fully
   (Eq. 6), and the utilization bound forbids draining whole planes at
   once (Eq. 5), so the optimal plan interleaves drain and undrain
   segments.  The example also sweeps the operation-block organization
   factor (§5/Fig. 11): coarser blocks plan faster but may cost more or
   become infeasible.

     dune exec examples/ssw_forklift.exe *)

let () =
  let scenario = Gen.build Gen.Ssw_forklift (Gen.params_c ()) in
  let st = Gen.stats scenario in
  Printf.printf "scenario %s: %d actions over %d switches\n" scenario.Gen.name
    st.Gen.actions st.Gen.orig_switches;

  print_endline "block-organization sweep (factor, blocks, cost, time):";
  List.iter
    (fun factor ->
      let task = Task.of_scenario ~block_factor:factor scenario in
      match Astar.plan ~config:(Planner.with_budget (Some 120.0)) task with
      | { Planner.outcome = Planner.Found p; Planner.stats; _ } ->
          Printf.printf "  %4.2fx  %3d blocks  cost %-4g  %.2fs\n" factor
            (Task.total_blocks task) p.Plan.cost stats.Planner.elapsed
      | { Planner.outcome = Planner.Infeasible; _ } ->
          Printf.printf "  %4.2fx  no feasible plan at this granularity\n"
            factor
      | _ -> Printf.printf "  %4.2fx  planner timed out\n" factor)
    [ 0.5; 1.0; 2.0 ];

  let task = Task.of_scenario scenario in
  match Astar.plan task with
  | { Planner.outcome = Planner.Found plan; _ } ->
      (match Plan.validate task plan with
      | Ok () -> print_endline "audit: plan is safe"
      | Error e -> Printf.printf "audit FAILED: %s\n" e);
      Format.printf "%a@." (Plan.pp task) plan
  | _ -> print_endline "no plan"
