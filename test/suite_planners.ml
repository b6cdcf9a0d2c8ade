(* Planner integration tests: optimality cross-checks on small instances
   (A* = DP = exhaustive oracle), plan validity, baseline behaviour, and
   ablation equivalences. *)

let cfg = Planner.with_budget (Some 60.0)

(* Small randomized HGRID scenarios: up to ~8 operation blocks so the
   exhaustive oracle stays instant. *)
let random_params seed =
  let g = Kutil.Prng.create ~seed in
  {
    (Gen.params_a ()) with
    Gen.label = Printf.sprintf "rand%d" seed;
    dcs = 1 + Kutil.Prng.int g 2;
    rsws_per_pod = 1 + Kutil.Prng.int g 2;
    v1_grids = 1 + Kutil.Prng.int g 3;
    v2_grids = 2 + Kutil.Prng.int g 3;
    mesh_variants = 1 + Kutil.Prng.int g 2;
    ssw_port_headroom = 1 + Kutil.Prng.int g 2;
  }

let random_task seed =
  let sc = Gen.build Gen.Hgrid_v1_to_v2 (random_params seed) in
  Task.of_scenario ~seed sc

let cost_of outcome =
  match outcome with
  | Planner.Found p -> Some p.Plan.cost
  | Planner.Infeasible -> None
  | Planner.Timeout _ | Planner.Unsupported _ ->
      Alcotest.fail "unexpected timeout/unsupported on a small instance"

let test_optimality_cross_check () =
  for seed = 1 to 12 do
    let task = random_task seed in
    let astar = (Astar.plan ~config:cfg task).Planner.outcome in
    let dp = (Dp.plan ~config:cfg task).Planner.outcome in
    let oracle =
      (Exhaustive.plan ~config:cfg ~bound:`Heuristic task).Planner.outcome
    in
    let ca = cost_of astar and cd = cost_of dp and co = cost_of oracle in
    Alcotest.(check (option (float 1e-9)))
      (Printf.sprintf "seed %d: A* = oracle" seed)
      co ca;
    Alcotest.(check (option (float 1e-9)))
      (Printf.sprintf "seed %d: DP = oracle" seed)
      co cd;
    (* Every produced plan must survive the independent audit. *)
    List.iter
      (fun outcome ->
        match outcome with
        | Planner.Found p -> (
            match Plan.validate task p with
            | Ok () -> ()
            | Error e -> Alcotest.fail (Printf.sprintf "seed %d: %s" seed e))
        | Planner.Infeasible | Planner.Timeout _ | Planner.Unsupported _ -> ())
      [ astar; dp; oracle ]
  done

let test_optimality_with_alpha () =
  for seed = 1 to 6 do
    let sc = Gen.build Gen.Hgrid_v1_to_v2 (random_params seed) in
    let task = Task.of_scenario ~alpha:0.4 ~seed sc in
    let ca = cost_of (Astar.plan ~config:cfg task).Planner.outcome in
    let cd = cost_of (Dp.plan ~config:cfg task).Planner.outcome in
    let co =
      cost_of
        (Exhaustive.plan ~config:cfg ~bound:`Heuristic task).Planner.outcome
    in
    Alcotest.(check (option (float 1e-9)))
      (Printf.sprintf "alpha seed %d: A* = oracle" seed)
      co ca;
    Alcotest.(check (option (float 1e-9)))
      (Printf.sprintf "alpha seed %d: DP = oracle" seed)
      co cd
  done

let test_janus_optimal_when_supported () =
  for seed = 1 to 4 do
    let task = random_task seed in
    let cj = cost_of (Janus.plan ~config:cfg task).Planner.outcome in
    let ca = cost_of (Astar.plan ~config:cfg task).Planner.outcome in
    Alcotest.(check (option (float 1e-9)))
      (Printf.sprintf "seed %d: Janus finds the optimum" seed)
      ca cj
  done

let test_mrc_never_better () =
  for seed = 1 to 6 do
    let task = random_task seed in
    match
      ( (Mrc.plan ~config:cfg task).Planner.outcome,
        (Astar.plan ~config:cfg task).Planner.outcome )
    with
    | Planner.Found mrc, Planner.Found opt ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: MRC >= optimal" seed)
          true
          (mrc.Plan.cost >= opt.Plan.cost -. 1e-9);
        (match Plan.validate task mrc with
        | Ok () -> ()
        | Error e -> Alcotest.fail ("MRC plan invalid: " ^ e))
    | Planner.Infeasible, Planner.Infeasible -> ()
    | Planner.Infeasible, Planner.Found _ ->
        () (* greedy dead-ends are permitted *)
    | Planner.Found _, Planner.Infeasible ->
        Alcotest.fail "MRC found a plan where none exists"
    | _ -> ()
  done

let test_ablations_agree_on_cost () =
  let task = random_task 3 in
  let opt = cost_of (Astar.plan ~config:cfg task).Planner.outcome in
  let no_esc =
    cost_of
      (Astar.plan ~dedup:false
         ~config:{ cfg with Planner.use_cache = false }
         task)
        .Planner.outcome
  in
  let no_astar =
    cost_of (Exhaustive.plan ~config:cfg ~bound:`Cost_only task).Planner.outcome
  in
  Alcotest.(check (option (float 1e-9))) "w/o ESC same optimum" opt no_esc;
  Alcotest.(check (option (float 1e-9))) "w/o A* same optimum" opt no_astar

let test_without_ob_feasible () =
  (* The w/o-OB ablation plans at symmetry granularity.  Its cost is not
     comparable to the merged-block cost (splitting a grid block separates
     the FADU and FAUU action types), but whenever the merged task is
     feasible, the finer one must be too, and its plan must audit clean. *)
  let sc = Gen.build Gen.Hgrid_v1_to_v2 (random_params 2) in
  let ob_task = Task.of_scenario ~seed:2 sc in
  let sym_task =
    Task.of_scenario ~seed:2 ~blocks:(Blocks.symmetry_granularity sc) sc
  in
  match
    ( (Astar.plan ~config:cfg ob_task).Planner.outcome,
      (Astar.plan ~config:cfg sym_task).Planner.outcome )
  with
  | Planner.Found _, Planner.Found sym -> (
      match Plan.validate sym_task sym with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
  | Planner.Found _, _ ->
      Alcotest.fail "finer granularity lost feasibility"
  | Planner.Infeasible, _ -> ()
  | _ -> Alcotest.fail "unexpected outcome"

let test_infeasible_detection () =
  (* theta below the calibrated origin utilization: even the origin's
     successors violate Eq. 5, so every planner must prove infeasibility. *)
  let sc = Gen.scenario_of_label "A" in
  let task = Task.of_scenario ~theta:0.3 ~target_util:0.52 sc in
  List.iter
    (fun (name, outcome) ->
      match outcome with
      | Planner.Infeasible -> ()
      | Planner.Found _ -> Alcotest.fail (name ^ " found an impossible plan")
      | Planner.Timeout _ | Planner.Unsupported _ ->
          Alcotest.fail (name ^ " did not prove infeasibility"))
    [
      ("A*", (Astar.plan ~config:cfg task).Planner.outcome);
      ("DP", (Dp.plan ~config:cfg task).Planner.outcome);
      ("exhaustive", (Exhaustive.plan ~config:cfg task).Planner.outcome);
      ("MRC", (Mrc.plan ~config:cfg task).Planner.outcome);
      ("Janus", (Janus.plan ~config:cfg task).Planner.outcome);
    ]

let test_unsupported_on_dmag () =
  let p = { (Gen.params_a ()) with Gen.mas = 6 } in
  let task = Task.of_scenario (Gen.build Gen.Dmag p) in
  (match (Mrc.plan ~config:cfg task).Planner.outcome with
  | Planner.Unsupported _ -> ()
  | _ -> Alcotest.fail "MRC accepted a topology-changing migration");
  (match (Janus.plan ~config:cfg task).Planner.outcome with
  | Planner.Unsupported _ -> ()
  | _ -> Alcotest.fail "Janus accepted a topology-changing migration");
  match (Astar.plan ~config:cfg task).Planner.outcome with
  | Planner.Found p -> (
      match Plan.validate task p with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "Klotski should plan DMAG"

let test_ocs_alphabet () =
  (* The OCS rewire scenario is reachable only through the enlarged
     alphabet: planners without wiring semantics must refuse it, the
     optimal planners must solve it with audited plans containing
     rewire phases — and the drain/undrain-only expression of the same
     target (the swap variant) must be provably infeasible. *)
  let task = Task.of_scenario (Gen.scenario_of_label "OCS-LITE") in
  Alcotest.(check bool) "task carries a wiring action" true
    (Task.affects_wiring task);
  (match (Mrc.plan ~config:cfg task).Planner.outcome with
  | Planner.Unsupported _ -> ()
  | _ -> Alcotest.fail "MRC accepted a wiring-changing migration");
  (match (Janus.plan ~config:cfg task).Planner.outcome with
  | Planner.Unsupported _ -> ()
  | _ -> Alcotest.fail "Janus accepted a wiring-changing migration");
  List.iter
    (fun (name, outcome) ->
      match outcome with
      | Planner.Found p -> (
          (match Plan.validate task p with
          | Ok () -> ()
          | Error e -> Alcotest.fail (name ^ ": " ^ e));
          let phases = Klotski.phases task p in
          let rewires =
            List.filter
              (fun (ph : Klotski.phase) ->
                Action.affects_wiring ph.Klotski.action)
              phases
          in
          Alcotest.(check int) (name ^ ": one phase per rewire group") 2
            (List.length rewires);
          (* Forced ordering: both uplink banks must be rewired away
             before the old EBs drain. *)
          let drain_index =
            let rec go i = function
              | [] -> Alcotest.fail (name ^ ": no drain phase")
              | ph :: rest ->
                  if Action.affects_wiring ph.Klotski.action then go (i + 1) rest
                  else i
            in
            go 0 phases
          in
          Alcotest.(check int) (name ^ ": rewires precede the drain") 2
            drain_index)
      | _ -> Alcotest.fail (name ^ " failed to plan the OCS rewire"))
    [
      ("A*", (Astar.plan ~config:cfg task).Planner.outcome);
      ("DP", (Dp.plan ~config:cfg task).Planner.outcome);
    ];
  let swap = Task.of_scenario (Gen.scenario_of_label "OCS-SWAP-LITE") in
  Alcotest.(check bool) "swap task has no wiring action" false
    (Task.affects_wiring swap);
  List.iter
    (fun (name, outcome) ->
      match outcome with
      | Planner.Infeasible -> ()
      | _ -> Alcotest.fail (name ^ " did not prove the swap infeasible"))
    [
      ("A*", (Astar.plan ~config:cfg swap).Planner.outcome);
      ("DP", (Dp.plan ~config:cfg swap).Planner.outcome);
    ]

let test_forklift_planning () =
  let task = Task.of_scenario (Gen.build Gen.Ssw_forklift (Gen.params_a ())) in
  match (Astar.plan ~config:cfg task).Planner.outcome with
  | Planner.Found p -> (
      match Plan.validate task p with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
  | Planner.Infeasible -> Alcotest.fail "forklift A is feasible by design"
  | _ -> Alcotest.fail "unexpected outcome"

(* Every planner as the tests drive it, by name: the six planners plus
   the two ablation settings the paper measures (A* w/o ESC, and
   Exhaustive with the heuristic bound as well as the cost-only one). *)
let pinned_planners : (string * (Planner.config -> Task.t -> Planner.result)) list =
  [
    ("astar", fun config task -> Astar.plan ~config task);
    ( "astar w/o ESC",
      fun config task ->
        Astar.plan ~dedup:false
          ~config:{ config with Planner.use_cache = false }
          task );
    ("dp", fun config task -> Dp.plan ~config task);
    ( "exhaustive cost-only",
      fun config task -> Exhaustive.plan ~config ~bound:`Cost_only task );
    ( "exhaustive heuristic",
      fun config task -> Exhaustive.plan ~config ~bound:`Heuristic task );
    ("greedy", fun config task -> Greedy.plan ~config task);
    ("mrc", fun config task -> Mrc.plan ~config task);
    ("janus", fun config task -> Janus.plan ~config task);
  ]

let pin_fingerprint (r : Planner.result) =
  let plan p =
    Printf.sprintf "%g [%s]" p.Plan.cost
      (String.concat "," (List.map string_of_int p.Plan.blocks))
  in
  let outcome =
    match r.Planner.outcome with
    | Planner.Found p -> "found " ^ plan p
    | Planner.Infeasible -> "infeasible"
    | Planner.Timeout (Some p) -> "timeout " ^ plan p
    | Planner.Timeout None -> "timeout"
    | Planner.Unsupported why -> "unsupported: " ^ why
  in
  let s = r.Planner.stats in
  Printf.sprintf "%s exp=%d gen=%d checks=%d hits=%d" outcome
    s.Planner.expanded s.Planner.generated s.Planner.sat_checks
    s.Planner.cache_hits

(* Budget expiry for every planner: a 1e-9 s budget on B must come back
   as [Timeout], never as an exception, and any plan it carries must
   audit.  Counters are not pinned here: at this budget the first poll's
   timing depends on the clock tick. *)
let test_timeout_reported planners () =
  let task = Task.of_scenario (Gen.scenario_of_label "B") in
  let config =
    { Planner.default_config with Planner.budget_seconds = Some 1e-9 }
  in
  List.iter
    (fun (name, plan) ->
      match (plan config task).Planner.outcome with
      | Planner.Timeout None -> ()
      | Planner.Timeout (Some p) -> (
          match Plan.validate task p with
          | Ok () -> ()
          | Error e -> Alcotest.fail (name ^ ": timeout plan invalid: " ^ e))
      | _ -> Alcotest.fail (name ^ ": a 1e-9 s budget must time out"))
    planners

let test_heuristic_guides_astar () =
  (* A* must expand no more states than DP on the same task. *)
  let task = Task.of_scenario (Gen.scenario_of_label "B") in
  let a = Astar.plan ~config:cfg task in
  let d = Dp.plan ~config:cfg task in
  Alcotest.(check bool) "A* expands <= DP" true
    (a.Planner.stats.Planner.expanded <= d.Planner.stats.Planner.expanded)

let test_secondary_priority_depth_first () =
  (* On topology A the search should be near-linear: expansions within a
     small multiple of the plan length. *)
  let task = Task.of_scenario (Gen.scenario_of_label "A") in
  match Astar.plan ~config:cfg task with
  | { Planner.outcome = Planner.Found p; Planner.stats; _ } ->
      Alcotest.(check bool) "near-linear expansion" true
        (stats.Planner.expanded <= 4 * Plan.length p)
  | _ -> Alcotest.fail "A* failed"

(* Randomized end-to-end property: for random small instances and random
   constraint/cost parameters, A* and the exhaustive oracle agree on the
   optimum (or both prove infeasibility), and every A* plan audits. *)
let prop_astar_equals_oracle =
  QCheck.Test.make ~count:25 ~name:"A* = oracle over random parameters"
    QCheck.(
      triple (int_range 1 1000)
        (pair (float_range 0.55 0.95) (float_bound_inclusive 1.0))
        bool)
    (fun (seed, (theta, alpha), with_weights) ->
      let sc = Gen.build Gen.Hgrid_v1_to_v2 (random_params seed) in
      let base = Task.of_scenario ~theta ~alpha ~seed sc in
      let task =
        if with_weights then begin
          let n = Action.Set.cardinal base.Task.actions in
          let g = Kutil.Prng.create ~seed:(seed + 7) in
          Task.with_params
            ~type_weights:
              (Array.init n (fun _ -> Kutil.Prng.uniform g ~lo:0.5 ~hi:3.0))
            base
        end
        else base
      in
      let astar = (Astar.plan ~config:cfg task).Planner.outcome in
      let oracle =
        (Exhaustive.plan ~config:cfg ~bound:`Heuristic task).Planner.outcome
      in
      match (astar, oracle) with
      | Planner.Infeasible, Planner.Infeasible -> true
      | Planner.Found a, Planner.Found o ->
          Float.abs (a.Plan.cost -. o.Plan.cost) < 1e-9
          && Plan.validate task a = Ok ()
      | _ -> false)

(* Appended: the score-guided greedy planner of §7.3's guided-search idea. *)
let test_greedy_valid_and_never_better () =
  for seed = 1 to 8 do
    let task = random_task seed in
    match
      ( (Greedy.plan ~config:cfg task).Planner.outcome,
        (Astar.plan ~config:cfg task).Planner.outcome )
    with
    | Planner.Found g, Planner.Found opt ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: greedy >= optimal" seed)
          true
          (g.Plan.cost >= opt.Plan.cost -. 1e-9);
        (match Plan.validate task g with
        | Ok () -> ()
        | Error e -> Alcotest.fail ("greedy plan invalid: " ^ e))
    | Planner.Infeasible, _ -> () (* greedy dead-ends are allowed *)
    | Planner.Found _, Planner.Infeasible ->
        Alcotest.fail "greedy planned the impossible"
    | _ -> ()
  done

let test_greedy_is_cheap () =
  let task = Task.of_scenario (Gen.scenario_of_label "B") in
  match Greedy.plan ~config:cfg task with
  | { Planner.outcome = Planner.Found _; Planner.stats; _ } ->
      let bound =
        Task.total_blocks task * Action.Set.cardinal task.Task.actions
      in
      Alcotest.(check bool) "O(L*A) checks" true
        (stats.Planner.sat_checks + stats.Planner.cache_hits <= bound)
  | _ -> Alcotest.fail "greedy should solve B"

let greedy_suite =
  [
    Alcotest.test_case "greedy valid and never better" `Slow
      test_greedy_valid_and_never_better;
    Alcotest.test_case "greedy check budget" `Quick test_greedy_is_cheap;
  ]

(* Every planner's search counters, pinned.  A fingerprint is the
   outcome with its plan blocks and cost, then expanded, generated,
   sat_checks and cache_hits.  The values were recorded from the
   per-planner implementations that each owned their own budget,
   engine and stats; any drift means a refactor changed which states a
   planner visits or checks.  Each row must hold with the incremental
   checker on and off.  Refusals pin their reason.  The DP rows pin a
   layer that reaches one state by two action types: without funneling
   the cache key leaves out the last type, so the state is checked once
   and its second arrival is a hit (on A, 65 checks and 74 hits). *)

let pin_task = function
  | "A-SSW" -> Task.of_scenario (Gen.build Gen.Ssw_forklift (Gen.params_a ()))
  | "A-DMAG" ->
      (* six MAs: the DMAG size the other A-scale tests plan feasibly *)
      Task.of_scenario (Gen.build Gen.Dmag { (Gen.params_a ()) with Gen.mas = 6 })
  | label -> Task.of_scenario (Gen.scenario_of_label label)

let mrc_dmag =
  "unsupported: migration introduces a new layer; the residual-capacity \
   objective is undefined on it exp=0 gen=0 checks=0 hits=0"

let mrc_ocs =
  "unsupported: migration rewires circuits; residual capacity after a \
   wiring change is not a drain-order objective exp=0 gen=0 checks=0 hits=0"

let janus_dmag =
  "unsupported: Janus assumes the symmetry structure survives the \
   migration; introducing a new layer (DMAG) breaks it exp=0 gen=0 checks=0 \
   hits=0"

let janus_ocs =
  "unsupported: Janus assumes the symmetry structure survives the \
   migration; rewiring circuits (OCS) changes it mid-flight exp=0 gen=0 \
   checks=0 hits=0"

let counter_pins =
  [
    ( "A",
      [
        ("astar", "found 4 [3,4,5,0,1,2,6,7] exp=8 gen=22 checks=22 hits=0");
        ( "astar w/o ESC",
          "found 4 [3,4,5,0,1,2,6,7] exp=8 gen=22 checks=22 hits=0" );
        ("dp", "found 4 [6,7,0,1,3,4,5,2] exp=52 gen=139 checks=65 hits=74");
        ( "exhaustive cost-only",
          "found 4 [3,4,5,0,1,2,6,7] exp=207 gen=247 checks=65 hits=182" );
        ( "exhaustive heuristic",
          "found 4 [3,4,5,0,1,2,6,7] exp=28 gen=33 checks=20 hits=13" );
        ("greedy", "found 4 [3,4,5,0,1,2,6,7] exp=8 gen=22 checks=22 hits=0");
        ("mrc", "found 6 [3,4,5,0,6,1,7,2] exp=8 gen=36 checks=33 hits=0");
        ( "janus",
          "found 4 [3,4,5,0,1,2,6,7] exp=118 gen=294 checks=294 hits=0" );
      ] );
    ( "B",
      [
        ( "astar",
          "found 4 [4,5,6,7,0,1,2,3,8,9,10,11] exp=14 gen=38 checks=35 hits=3"
        );
        ( "astar w/o ESC",
          "found 4 [4,5,6,7,0,1,2,3,8,9,10,11] exp=14 gen=38 checks=38 hits=0"
        );
        ( "dp",
          "found 4 [8,9,10,11,2,3,0,1,4,5,6,7] exp=194 gen=582 checks=214 \
           hits=368" );
        ( "exhaustive cost-only",
          "found 4 [4,5,6,7,0,1,2,3,8,9,10,11] exp=1674 gen=1830 checks=214 \
           hits=1616" );
        ( "exhaustive heuristic",
          "found 4 [4,5,6,7,0,1,2,3,8,9,10,11] exp=57 gen=61 checks=28 hits=33"
        );
        ( "greedy",
          "found 5 [0,4,5,6,7,1,2,3,8,9,10,11] exp=12 gen=31 checks=31 hits=0"
        );
        ( "mrc",
          "found 9 [4,5,6,7,8,0,9,1,10,2,11,3] exp=12 gen=78 checks=72 hits=0"
        );
        ( "janus",
          "found 4 [8,9,10,11,2,3,0,1,4,5,6,7] exp=545 gen=1588 checks=1588 \
           hits=0" );
      ] );
    ( "A-SSW",
      [
        ("astar", "found 2 [4,5,6,7,0,1,2,3] exp=9 gen=14 checks=13 hits=1");
        ( "astar w/o ESC",
          "found 2 [4,5,6,7,0,1,2,3] exp=9 gen=14 checks=14 hits=0" );
        ("dp", "found 2 [4,5,6,7,0,1,2,3] exp=18 gen=31 checks=21 hits=10");
        ( "exhaustive cost-only",
          "found 2 [4,5,6,7,0,1,2,3] exp=51 gen=56 checks=21 hits=35" );
        ( "exhaustive heuristic",
          "found 2 [4,5,6,7,0,1,2,3] exp=38 gen=41 checks=21 hits=20" );
        ("greedy", "found 3 [0,4,5,6,7,1,2,3] exp=8 gen=13 checks=13 hits=0");
        ("mrc", "found 8 [4,0,5,1,6,2,7,3] exp=8 gen=36 checks=36 hits=0");
        ("janus", "found 2 [4,5,6,7,0,1,2,3] exp=29 gen=54 checks=54 hits=0");
      ] );
    ( "A-DMAG",
      [
        ("astar", "found 3 [2,3,4,5,6,0,1,7] exp=9 gen=17 checks=16 hits=1");
        ( "astar w/o ESC",
          "found 3 [2,3,4,5,6,0,1,7] exp=9 gen=17 checks=17 hits=0" );
        ("dp", "found 3 [2,3,4,5,6,0,1,7] exp=17 gen=29 checks=20 hits=9");
        ( "exhaustive cost-only",
          "found 3 [2,0,1,3,4,5,6,7] exp=37 gen=39 checks=20 hits=19" );
        ( "exhaustive heuristic",
          "found 3 [2,0,1,3,4,5,6,7] exp=25 gen=27 checks=20 hits=7" );
        ("greedy", "found 4 [0,2,3,4,5,6,1,7] exp=8 gen=15 checks=15 hits=0");
        ("mrc", mrc_dmag);
        ("janus", janus_dmag);
      ] );
    ( "OCS-LITE",
      [
        ("astar", "found 3 [0,1,2,3] exp=4 gen=7 checks=7 hits=0");
        ("astar w/o ESC", "found 3 [0,1,2,3] exp=4 gen=7 checks=7 hits=0");
        ("dp", "found 3 [1,0,2,3] exp=6 gen=11 checks=9 hits=2");
        ( "exhaustive cost-only",
          "found 3 [0,1,2,3] exp=8 gen=10 checks=9 hits=1" );
        ( "exhaustive heuristic",
          "found 3 [0,1,2,3] exp=5 gen=4 checks=4 hits=0" );
        ("greedy", "found 3 [0,1,2,3] exp=4 gen=7 checks=7 hits=0");
        ("mrc", mrc_ocs);
        ("janus", janus_ocs);
      ] );
  ]

let test_counter_pins () =
  List.iter
    (fun (label, rows) ->
      let task = pin_task label in
      List.iter
        (fun (name, want) ->
          let plan = List.assoc name pinned_planners in
          List.iter
            (fun incremental ->
              let config =
                Planner.with_incremental incremental
                  (Planner.with_budget (Some 120.0))
              in
              Alcotest.(check string)
                (Printf.sprintf "%s %s incremental=%b" label name incremental)
                want
                (pin_fingerprint (plan config task)))
            [ true; false ])
        rows)
    counter_pins

(* The harness builds its checker and cache from every config field.
   A planner that ignores one fails here, as MRC and Janus once ignored
   [incremental] by building their checker themselves. *)
let test_search_follows_config () =
  let task = Task.of_scenario (Gen.scenario_of_label "A") in
  List.iter
    (fun (incremental, use_cache) ->
      let config =
        { (Planner.with_budget (Some 60.0)) with
          Planner.incremental; use_cache }
      in
      let label =
        Printf.sprintf "incremental=%b use_cache=%b" incremental use_cache
      in
      let r =
        Search.run ~name:"probe" config task (fun s task ->
            Alcotest.(check bool) (label ^ ": checker") incremental
              (Constraint.incremental_active (Search.checker s));
            (* One state checked twice: the repeat is a hit only when the
               cache is on. *)
            let c = Search.succ s (Compact.origin task.Task.actions) 0 in
            for _ = 1 to 2 do
              ignore (Search.check s c : bool)
            done;
            Planner.Infeasible)
      in
      Alcotest.(check (pair int int)) (label ^ ": checks, hits")
        (if use_cache then (1, 1) else (2, 0))
        (r.Planner.stats.Planner.sat_checks, r.Planner.stats.Planner.cache_hits))
    [ (true, true); (false, true); (true, false); (false, false) ]

(* Every exit path of the policy: a normal return, budget expiry and an
   exception raised by the policy. *)
let test_search_exit_paths () =
  let task = Task.of_scenario (Gen.scenario_of_label "A") in
  let config = Planner.with_budget (Some 60.0) in
  let run policy =
    Search.run ~name:"probe" config task (fun _ _ -> policy ())
  in
  (match (run (fun () -> Planner.Infeasible)).Planner.outcome with
  | Planner.Infeasible -> ()
  | _ -> Alcotest.fail "the policy's outcome must come back");
  (match (run (fun () -> raise Search.Expired)).Planner.outcome with
  | Planner.Timeout None -> ()
  | _ -> Alcotest.fail "an uncaught Expired must become Timeout None");
  match run (fun () -> failwith "policy failure") with
  | _ -> Alcotest.fail "the policy's exception must propagate"
  | exception Failure _ -> ()

(* Each cache miss is exactly one full check, and a repeated state is a
   hit that runs no new check. *)
let test_search_check_counter () =
  let task = random_task 2 in
  let r =
    Search.run ~name:"probe" (Planner.with_budget (Some 60.0)) task
      (fun s task ->
        let origin = Compact.origin task.Task.actions in
        let cands =
          List.init (Array.length task.Task.counts) (Search.succ s origin)
        in
        List.iter (fun c -> ignore (Search.check s c : bool)) cands;
        let checks = Constraint.checks_performed (Search.checker s) in
        Alcotest.(check int) "one check per distinct state"
          (List.length cands) checks;
        List.iter (fun c -> ignore (Search.check s c : bool)) cands;
        Alcotest.(check int) "repeats run no check" checks
          (Constraint.checks_performed (Search.checker s));
        Planner.Infeasible)
  in
  Alcotest.(check int) "hits recorded"
    (Array.length task.Task.counts)
    r.Planner.stats.Planner.cache_hits

(* Counters are deterministic, and the metered check time fits inside
   the run's elapsed time. *)
let test_search_stats_deterministic () =
  let task = random_task 2 in
  let config = Planner.with_budget (Some 60.0) in
  let a = Astar.plan ~config task in
  let b = Astar.plan ~config task in
  Alcotest.(check int) "deterministic sat_checks"
    a.Planner.stats.Planner.sat_checks b.Planner.stats.Planner.sat_checks;
  Alcotest.(check int) "deterministic cache_hits"
    a.Planner.stats.Planner.cache_hits b.Planner.stats.Planner.cache_hits;
  Alcotest.(check bool) "check time metered" true
    (a.Planner.stats.Planner.check_seconds >= 0.0
    && a.Planner.stats.Planner.check_seconds
       <= a.Planner.stats.Planner.elapsed +. 1e-3)

(* On C-SSW the delta layer is live ([Task.delta_profitable]), so
   this is where MRC's and Janus's checker really differs with the
   incremental flag.  Both settings must give the pinned fingerprint.
   MRC's pin is the full-evaluation plan: its residual objective treats
   values within 1e-9 as ties, so the delta layer's float drift cannot
   reorder symmetric blocks. *)
let test_baselines_incremental_differential () =
  let task =
    Task.of_scenario (Gen.build Gen.Ssw_forklift (Gen.params_c ()))
  in
  Alcotest.(check bool) "delta layer live" true
    (Task.delta_profitable task);
  List.iter
    (fun (name, want) ->
      let plan = List.assoc name pinned_planners in
      List.iter
        (fun incremental ->
          let config =
            Planner.with_incremental incremental
              (Planner.with_budget (Some 120.0))
          in
          Alcotest.(check string)
            (Printf.sprintf "C-SSW %s incremental=%b" name incremental)
            want
            (pin_fingerprint (plan config task)))
        [ true; false ])
    [
      ( "mrc",
        "found 32 [0,16,1,17,2,18,3,19,4,20,5,21,6,22,7,23,8,24,9,25,10,26,\
         11,27,12,28,13,29,14,30,15,31] exp=32 gen=528 checks=296 hits=0" );
      ( "janus",
        "found 18 [0,16,1,17,2,3,4,18,19,20,5,21,6,7,8,22,23,24,9,25,10,11,\
         12,26,27,28,13,29,14,15,30,31] exp=53 gen=133 checks=133 hits=0" );
    ]

let suite =
  ( "planners",
    [
      Alcotest.test_case "A* = DP = oracle on random instances" `Slow
        test_optimality_cross_check;
      Alcotest.test_case "optimality under alpha > 0" `Slow
        test_optimality_with_alpha;
      Alcotest.test_case "Janus optimal when supported" `Slow
        test_janus_optimal_when_supported;
      Alcotest.test_case "MRC never beats the optimum" `Slow
        test_mrc_never_better;
      Alcotest.test_case "ablations find the same optimum" `Quick
        test_ablations_agree_on_cost;
      Alcotest.test_case "finer blocks stay feasible" `Quick
        test_without_ob_feasible;
      Alcotest.test_case "infeasibility detection" `Quick
        test_infeasible_detection;
      Alcotest.test_case "baselines refuse DMAG" `Quick test_unsupported_on_dmag;
      Alcotest.test_case "OCS alphabet end to end" `Quick test_ocs_alphabet;
      Alcotest.test_case "forklift planning" `Quick test_forklift_planning;
      Alcotest.test_case "timeout reporting" `Quick
        (test_timeout_reported pinned_planners);
      Alcotest.test_case "A* expands no more than DP" `Quick
        test_heuristic_guides_astar;
      Alcotest.test_case "secondary priority keeps search linear" `Quick
        test_secondary_priority_depth_first;
      QCheck_alcotest.to_alcotest prop_astar_equals_oracle;
      Alcotest.test_case "every planner's counters pinned" `Quick
        test_counter_pins;
      Alcotest.test_case "search harness follows the config" `Quick
        test_search_follows_config;
      Alcotest.test_case "search harness exit paths" `Quick
        test_search_exit_paths;
      Alcotest.test_case "search check counter consistent" `Quick
        test_search_check_counter;
      Alcotest.test_case "search stats deterministic" `Quick
        test_search_stats_deterministic;
      Alcotest.test_case "MRC and Janus incremental on C-SSW" `Quick
        test_baselines_incremental_differential;
    ]
    @ greedy_suite )
