(* Tests for the §7 deployment extensions: weighted routing
   configurations, the OPEX cost model, space & power constraints, and
   the operation simulator. *)

let feq = Alcotest.float 1e-9

(* ---------------------------------------------------------------- *)
(* Weighted routing (§7.1) *)

let role_is r (sw : Switch.t) = sw.Switch.role = r

let unequal_fixture () =
  (* One RSW with two uplinks of capacities 1 and 3. *)
  let b = Builder.create ~switches:3 ~circuits:2 in
  let r = Builder.add_switch b ~name:"r" ~role:Switch.RSW ~max_ports:4 () in
  let f0 = Builder.add_switch b ~name:"f0" ~role:Switch.FSW ~max_ports:4 () in
  let f1 = Builder.add_switch b ~name:"f1" ~role:Switch.FSW ~max_ports:4 () in
  let c0 = Builder.add_circuit b ~lo:r ~hi:f0 ~capacity:1.0 () in
  let c1 = Builder.add_circuit b ~lo:r ~hi:f1 ~capacity:3.0 () in
  (Builder.freeze b, r, c0, c1)

let test_weighted_split () =
  let topo, r, c0, c1 = unequal_fixture () in
  let compiled =
    Ecmp.compile (Topo.universe topo) ~sources:[ (r, 4.0) ]
      ~hops:[ Ecmp.hop `Up (role_is Switch.FSW) ]
  in
  let scratch = Ecmp.make_scratch (Topo.universe topo) in
  let loads = Array.make (Topo.n_circuits topo) 0.0 in
  ignore (Ecmp.evaluate topo scratch compiled ~loads);
  Alcotest.check feq "plain ECMP ignores capacity" 2.0 loads.(c0);
  Alcotest.check feq "plain ECMP ignores capacity (big)" 2.0 loads.(c1);
  Array.fill loads 0 (Array.length loads) 0.0;
  ignore
    (Ecmp.evaluate ~split:`Capacity_weighted topo scratch compiled ~loads);
  Alcotest.check feq "weighted: small circuit carries 1/4" 1.0 loads.(c0);
  Alcotest.check feq "weighted: big circuit carries 3/4" 3.0 loads.(c1)

let test_weighted_conservation () =
  let topo, r, _, _ = unequal_fixture () in
  let compiled =
    Ecmp.compile (Topo.universe topo) ~sources:[ (r, 5.0) ]
      ~hops:[ Ecmp.hop `Up (role_is Switch.FSW) ]
  in
  let scratch = Ecmp.make_scratch (Topo.universe topo) in
  let loads = Array.make (Topo.n_circuits topo) 0.0 in
  let result =
    Ecmp.evaluate ~split:`Capacity_weighted topo scratch compiled ~loads
  in
  Alcotest.check feq "conserved" 5.0
    (result.Ecmp.delivered +. result.Ecmp.stuck)

let test_weighted_routing_enables_plans () =
  (* The §7.1 story: with 60%-capacity V2 circuits, plain ECMP cannot plan
     at theta 0.7 but the weighted routing configuration can. *)
  let p = Gen.params_b () in
  let p = { p with Gen.cap_ssw_fadu_v2 = p.Gen.cap_ssw_fadu_v1 *. 0.6 } in
  let sc = Gen.build Gen.Hgrid_v1_to_v2 p in
  let plain = Task.of_scenario ~theta:0.7 ~routing:`Ecmp sc in
  let weighted = Task.of_scenario ~theta:0.7 ~routing:`Weighted sc in
  (match (Astar.plan plain).Planner.outcome with
  | Planner.Infeasible -> ()
  | Planner.Found _ -> Alcotest.fail "plain ECMP should not plan this"
  | _ -> Alcotest.fail "unexpected outcome");
  match (Astar.plan weighted).Planner.outcome with
  | Planner.Found plan -> (
      match Plan.validate weighted plan with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "weighted routing should plan this"

(* Weighted split conserves flow under arbitrary drains, like plain. *)
let prop_weighted_conservation =
  QCheck.Test.make ~count:150 ~name:"weighted split conserves volume"
    QCheck.(list (int_bound 2))
    (fun drains ->
      let topo, r, _, _ = unequal_fixture () in
      List.iter
        (fun s -> if s <> r then Topo.set_switch_active topo s false)
        drains;
      let compiled =
        Ecmp.compile (Topo.universe topo) ~sources:[ (r, 2.0) ]
          ~hops:[ Ecmp.hop `Up (role_is Switch.FSW) ]
      in
      let scratch = Ecmp.make_scratch (Topo.universe topo) in
      let loads = Array.make (Topo.n_circuits topo) 0.0 in
      let res =
        Ecmp.evaluate ~split:`Capacity_weighted topo scratch compiled ~loads
      in
      Float.abs (res.Ecmp.delivered +. res.Ecmp.stuck -. 2.0) < 1e-9
      && Array.for_all (fun l -> l >= 0.0) loads)

(* ---------------------------------------------------------------- *)
(* OPEX cost model (§7.2) *)

let test_weighted_step_costs () =
  let weights = [| 2.0; 0.5 |] in
  Alcotest.check feq "weighted start" 2.0
    (Cost.step ~alpha:0.0 ~weights ~last:None 0);
  Alcotest.check feq "weighted repeat" 1.0
    (Cost.step ~alpha:0.5 ~weights ~last:(Some 0) 0);
  Alcotest.check feq "cheap type" 0.5 (Cost.step ~alpha:0.0 ~weights ~last:(Some 0) 1);
  Alcotest.check feq "weighted sequence" 4.5
    (Cost.sequence ~alpha:0.0 ~weights [ 0; 1; 0 ]);
  Alcotest.check_raises "non-positive weight"
    (Invalid_argument "Cost: weights must be positive") (fun () ->
      ignore (Cost.step ~alpha:0.0 ~weights:[| 0.0 |] ~last:None 0))

let test_weighted_heuristic () =
  let weights = [| 2.0; 0.5 |] in
  Alcotest.check feq "weighted Eq. 9" 2.5
    (Cost.heuristic ~alpha:0.0 ~weights [| 3; 1 |]);
  Alcotest.check feq "tightening uses the run's weight" 0.5
    (Cost.heuristic_with_last ~alpha:0.0 ~weights ~last:(Some 0) [| 3; 1 |])

let test_opex_optimality () =
  (* A* = DP = oracle under a non-uniform OPEX model. *)
  let sc = Gen.scenario_of_label "A" in
  let base = Task.of_scenario sc in
  let n = Action.Set.cardinal base.Task.actions in
  let weights = Array.init n (fun i -> 0.5 +. (0.75 *. float_of_int i)) in
  let task = Task.with_params ~type_weights:weights base in
  let cost outcome =
    match outcome with
    | Planner.Found (p : Plan.t) -> p.Plan.cost
    | _ -> Alcotest.fail "no plan under OPEX weights"
  in
  let ca = cost (Astar.plan task).Planner.outcome in
  let cd = cost (Dp.plan task).Planner.outcome in
  let co = cost (Exhaustive.plan ~bound:`Heuristic task).Planner.outcome in
  Alcotest.check feq "A* = oracle" co ca;
  Alcotest.check feq "DP = oracle" co cd

let test_opex_changes_plans () =
  (* Making one drain type very expensive should never reduce the cost. *)
  let sc = Gen.scenario_of_label "A" in
  let base = Task.of_scenario sc in
  let n = Action.Set.cardinal base.Task.actions in
  let weights = Array.make n 1.0 in
  weights.(0) <- 5.0;
  let weighted = Task.with_params ~type_weights:weights base in
  match
    ((Astar.plan base).Planner.outcome, (Astar.plan weighted).Planner.outcome)
  with
  | Planner.Found p0, Planner.Found p1 ->
      Alcotest.(check bool) "weighted cost >= uniform cost" true
        (p1.Plan.cost >= p0.Plan.cost -. 1e-9)
  | _ -> Alcotest.fail "planning failed"

(* ---------------------------------------------------------------- *)
(* Space & power (§7.2) *)

let test_power_model_validation () =
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Power.make: non-positive capacity") (fun () ->
      ignore (Power.make ~n_switches:2 ~domains:[ ("d", 0.0) ] ~assign:[]));
  Alcotest.check_raises "double assignment"
    (Invalid_argument "Power.make: switch assigned twice") (fun () ->
      ignore
        (Power.make ~n_switches:2
           ~domains:[ ("d", 1.0) ]
           ~assign:[ (0, 0, 1.0); (0, 0, 1.0) ]))

let test_power_load_tracks_activity () =
  let sc = Gen.scenario_of_label "A" in
  let power = Power.hall_model sc ~headroom:0.5 in
  let topo = Topo.copy sc.Gen.topo in
  let initial = (Power.load power topo).(0) in
  Alcotest.(check bool) "V1 draws initially" true (initial > 0.0);
  Alcotest.(check bool) "within budget" true (Power.ok power topo);
  (* Energize every V2 switch: exceeds the 1.5x hall budget. *)
  List.iter (fun s -> Topo.set_switch_active topo s true) sc.Gen.undrain_switches;
  Alcotest.(check bool) "full coexistence blows the budget" false
    (Power.ok power topo)

let test_power_constrains_plans () =
  let sc = Gen.scenario_of_label "A" in
  (* theta 0.95 so utilization barely binds; generous ports are already in
     the scenario.  A tiny power headroom must force interleaving. *)
  let unconstrained = Task.of_scenario ~theta:0.95 sc in
  let power = Power.hall_model sc ~headroom:0.1 in
  let constrained = Task.of_scenario ~theta:0.95 ~power sc in
  match
    ( (Astar.plan unconstrained).Planner.outcome,
      (Astar.plan constrained).Planner.outcome )
  with
  | Planner.Found p0, Planner.Found p1 ->
      Alcotest.(check bool) "power cannot lower the cost" true
        (p1.Plan.cost >= p0.Plan.cost -. 1e-9);
      (match Plan.validate constrained p1 with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      (* Undraining before draining energizes both fabrics at once:
         some prefix breaks the budget. *)
      let undrains_first =
        let drain b =
          (Action.Set.get constrained.Task.actions (Task.block_type constrained b))
            .Action.op = Action.Drain
        in
        List.stable_sort
          (fun a b -> Bool.compare (drain a) (drain b))
          (List.init (Task.total_blocks constrained) Fun.id)
      in
      (match Constraint.check_plan constrained undrains_first with
      | Error e ->
          Alcotest.(check bool) (Printf.sprintf "%S names power" e) true
            (String.ends_with ~suffix:": power" e)
      | Ok _ -> Alcotest.fail "undraining first fits the budget")
  | _, Planner.Infeasible ->
      () (* acceptable: too tight a budget proves infeasible *)
  | _ -> Alcotest.fail "planning failed"

(* MRC ranks candidate states by [Constraint.current_min_residual], so
   that margin must reject every state the audit rejects.  Before it
   tested power, MRC returned plans under this budget (cost 6 on A, 9 on
   B) that [Plan.validate] refused. *)
let test_mrc_respects_power () =
  List.iter
    (fun label ->
      let sc = Gen.scenario_of_label label in
      let power = Power.hall_model sc ~headroom:0.1 in
      let task = Task.of_scenario ~theta:0.95 ~power sc in
      match (Mrc.plan task).Planner.outcome with
      | Planner.Found p -> (
          match Plan.validate task p with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: MRC's plan fails the audit: %s" label e)
      | Planner.Infeasible -> ()
      | _ -> Alcotest.failf "%s: MRC neither planned nor proved infeasibility" label)
    [ "A"; "B" ]

let test_power_optimality () =
  let sc = Gen.scenario_of_label "A" in
  let power = Power.hall_model sc ~headroom:0.4 in
  let task = Task.of_scenario ~power sc in
  let cost outcome =
    match outcome with
    | Planner.Found (p : Plan.t) -> Some p.Plan.cost
    | Planner.Infeasible -> None
    | _ -> Alcotest.fail "unexpected"
  in
  Alcotest.(check (option (float 1e-9)))
    "A* = oracle under power constraints"
    (cost (Exhaustive.plan ~bound:`Heuristic task).Planner.outcome)
    (cost (Astar.plan task).Planner.outcome)

(* ---------------------------------------------------------------- *)
(* Operation simulator *)

let sim_fixture () =
  let sc = Gen.scenario_of_label "A" in
  let task = Task.of_scenario sc in
  let plan =
    match Astar.plan task with
    | { Planner.outcome = Planner.Found p; _ } -> p
    | _ -> Alcotest.fail "planning failed"
  in
  (task, plan)

let test_simulate_no_failures () =
  let task, plan = sim_fixture () in
  let prng = Kutil.Prng.create ~seed:1 in
  let forecast =
    Forecast.create ~weekly_growth:0.0 ~spike_probability:0.0 ~prng ()
  in
  let outcome =
    Simulate.run
      ~config:{ Simulate.default_config with Simulate.failure_probability = 0.0 }
      ~prng ~forecast task plan
  in
  Alcotest.(check bool) "completed" true outcome.Simulate.completed;
  Alcotest.(check int) "no failures" 0 outcome.Simulate.failures;
  Alcotest.(check int) "no replans" 0 outcome.Simulate.replans;
  let completed_steps =
    List.length
      (List.filter
         (function Simulate.Step_completed _ -> true | _ -> false)
         outcome.Simulate.events)
  in
  Alcotest.(check int) "every step executed" (Plan.length plan) completed_steps

let test_simulate_survives_failures () =
  let task, plan = sim_fixture () in
  let prng = Kutil.Prng.create ~seed:5 in
  let forecast =
    Forecast.create ~weekly_growth:0.0 ~spike_probability:0.0 ~prng ()
  in
  let outcome =
    Simulate.run
      ~config:{ Simulate.default_config with Simulate.failure_probability = 0.4 }
      ~prng ~forecast task plan
  in
  Alcotest.(check bool) "still completes" true outcome.Simulate.completed;
  Alcotest.(check bool) "some failures happened" true
    (outcome.Simulate.failures > 0)

let test_simulate_deterministic () =
  let task, plan = sim_fixture () in
  let run seed =
    let prng = Kutil.Prng.create ~seed in
    let forecast =
      Forecast.create ~weekly_growth:0.01 ~spike_probability:0.1
        ~prng:(Kutil.Prng.create ~seed:99) ()
    in
    Simulate.run ~prng ~forecast task plan
  in
  let a = run 7 and b = run 7 in
  Alcotest.(check bool) "same seed, same trace" true
    (a.Simulate.events = b.Simulate.events);
  Alcotest.(check int) "same weeks" a.Simulate.weeks b.Simulate.weeks

let test_simulate_max_weeks_abort () =
  let task, plan = sim_fixture () in
  let prng = Kutil.Prng.create ~seed:5 in
  let forecast =
    Forecast.create ~weekly_growth:0.0 ~spike_probability:0.0 ~prng ()
  in
  (* Always-failing pipeline: nothing ever completes. *)
  let outcome =
    Simulate.run
      ~config:
        {
          Simulate.default_config with
          Simulate.failure_probability = 1.0;
          max_weeks = 3;
        }
      ~prng ~forecast task plan
  in
  Alcotest.(check bool) "not completed" false outcome.Simulate.completed;
  Alcotest.(check int) "stopped at the deadline" 3 outcome.Simulate.weeks;
  Alcotest.(check bool) "abort recorded" true
    (List.exists
       (function Simulate.Aborted _ -> true | _ -> false)
       outcome.Simulate.events)

let test_simulate_replans_under_growth () =
  (* Strong growth must eventually fail an audit and trigger replanning
     (or an abort) on topology C, whose plan peaks near theta. *)
  let sc = Gen.scenario_of_label "C" in
  let task = Task.of_scenario sc in
  let plan =
    match Astar.plan task with
    | { Planner.outcome = Planner.Found p; _ } -> p
    | _ -> Alcotest.fail "planning failed"
  in
  let prng = Kutil.Prng.create ~seed:3 in
  let forecast =
    Forecast.create ~weekly_growth:0.12 ~spike_probability:0.0 ~prng ()
  in
  let outcome =
    Simulate.run
      ~config:
        {
          Simulate.default_config with
          Simulate.failure_probability = 0.0;
          steps_per_week = 1;
        }
      ~prng ~forecast task plan
  in
  Alcotest.(check bool) "audits reacted to growth" true
    (outcome.Simulate.replans > 0
    || List.exists
         (function Simulate.Aborted _ -> true | _ -> false)
         outcome.Simulate.events)

let suite =
  ( "extensions",
    [
      Alcotest.test_case "weighted split proportions" `Quick test_weighted_split;
      Alcotest.test_case "weighted conservation" `Quick
        test_weighted_conservation;
      Alcotest.test_case "weighted routing enables plans" `Quick
        test_weighted_routing_enables_plans;
      QCheck_alcotest.to_alcotest prop_weighted_conservation;
      Alcotest.test_case "OPEX step costs" `Quick test_weighted_step_costs;
      Alcotest.test_case "OPEX heuristic" `Quick test_weighted_heuristic;
      Alcotest.test_case "OPEX optimality" `Quick test_opex_optimality;
      Alcotest.test_case "OPEX changes plans monotonically" `Quick
        test_opex_changes_plans;
      Alcotest.test_case "power model validation" `Quick
        test_power_model_validation;
      Alcotest.test_case "power load tracking" `Quick
        test_power_load_tracks_activity;
      Alcotest.test_case "power constrains plans" `Quick
        test_power_constrains_plans;
      Alcotest.test_case "MRC plans respect power" `Quick test_mrc_respects_power;
      Alcotest.test_case "power optimality" `Quick test_power_optimality;
      Alcotest.test_case "simulator: clean run" `Quick test_simulate_no_failures;
      Alcotest.test_case "simulator: survives failures" `Quick
        test_simulate_survives_failures;
      Alcotest.test_case "simulator: deterministic" `Quick
        test_simulate_deterministic;
      Alcotest.test_case "simulator: max-weeks abort" `Quick
        test_simulate_max_weeks_abort;
      Alcotest.test_case "simulator: replans under growth" `Slow
        test_simulate_replans_under_growth;
    ] )
