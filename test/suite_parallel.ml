(* Differential tests for the parallel satisfiability engine: planning
   with jobs=1 (the bit-identical sequential path) and jobs>1 must agree
   on outcome and plan cost for every planner that uses the engine, and
   on every counter; the engine's batch verdicts must match sequential
   evaluation. *)

let cfg jobs = Planner.with_jobs jobs (Planner.with_budget (Some 60.0))

(* Small randomized HGRID scenarios, as in the planner suite. *)
let random_params seed =
  let g = Kutil.Prng.create ~seed in
  {
    (Gen.params_a ()) with
    Gen.label = Printf.sprintf "par%d" seed;
    dcs = 1 + Kutil.Prng.int g 2;
    rsws_per_pod = 1 + Kutil.Prng.int g 2;
    v1_grids = 1 + Kutil.Prng.int g 3;
    v2_grids = 2 + Kutil.Prng.int g 3;
    mesh_variants = 1 + Kutil.Prng.int g 2;
    ssw_port_headroom = 1 + Kutil.Prng.int g 2;
  }

let random_task seed =
  Task.of_scenario ~seed (Gen.build Gen.Hgrid_v1_to_v2 (random_params seed))

let outcome_fingerprint = function
  | Planner.Found p -> Printf.sprintf "found %.9f" p.Plan.cost
  | Planner.Infeasible -> "infeasible"
  | Planner.Timeout (Some p) -> Printf.sprintf "timeout %.9f" p.Plan.cost
  | Planner.Timeout None -> "timeout"
  | Planner.Unsupported why -> "unsupported: " ^ why

let planners : (string * (Planner.config -> Task.t -> Planner.result)) list =
  [
    ("astar", fun config task -> Astar.plan ~config task);
    ("dp", fun config task -> Dp.plan ~config task);
    ("exhaustive", fun config task -> Exhaustive.plan ~config task);
    ("greedy", fun config task -> Greedy.plan ~config task);
  ]

let test_differential_planning () =
  for seed = 1 to 6 do
    let task = random_task seed in
    List.iter
      (fun (name, plan) ->
        let seq = plan (cfg 1) task in
        let par = plan (cfg 4) task in
        Alcotest.(check string)
          (Printf.sprintf "seed %d: %s jobs=1 vs jobs=4" seed name)
          (outcome_fingerprint seq.Planner.outcome)
          (outcome_fingerprint par.Planner.outcome);
        (* Parallel plans must survive the independent audit too. *)
        match par.Planner.outcome with
        | Planner.Found p -> (
            match Plan.validate task p with
            | Ok () -> ()
            | Error e ->
                Alcotest.fail
                  (Printf.sprintf "seed %d: %s parallel plan invalid: %s" seed
                     name e))
        | _ -> ())
      planners
  done

let test_differential_label_a () =
  let task = Task.of_scenario (Gen.scenario_of_label "A") in
  List.iter
    (fun (name, plan) ->
      let seq = plan (cfg 1) task in
      let par = plan (cfg 3) task in
      Alcotest.(check string)
        (Printf.sprintf "topology A: %s" name)
        (outcome_fingerprint seq.Planner.outcome)
        (outcome_fingerprint par.Planner.outcome))
    planners

let test_differential_jobs8 () =
  (* jobs=8 asks for the widest pool.  Outcomes, costs and plan validity
     must match the sequential path for every engine-backed planner, and
     every planner must return the same block sequence.  Every planner
     must also run the same checks and hit the cache as often: a key
     repeated within a batch is evaluated once. *)
  for seed = 7 to 9 do
    let task = random_task seed in
    List.iter
      (fun (name, plan) ->
        let seq = plan (cfg 1) task in
        let par = plan (cfg 8) task in
        let what = Printf.sprintf "seed %d: %s" seed name in
        Alcotest.(check string)
          (what ^ " jobs=1 vs jobs=8")
          (outcome_fingerprint seq.Planner.outcome)
          (outcome_fingerprint par.Planner.outcome);
        let counters (r : Planner.result) =
          let st = r.Planner.stats in
          [
            st.Planner.expanded;
            st.Planner.generated;
            st.Planner.sat_checks;
            st.Planner.cache_hits;
          ]
        in
        Alcotest.(check (list int))
          (what ^ " counters agree")
          (counters seq) (counters par);
        match (seq.Planner.outcome, par.Planner.outcome) with
        | Planner.Found a, Planner.Found b -> (
            Alcotest.(check (list int))
              (what ^ " identical block sequence")
              a.Plan.blocks b.Plan.blocks;
            match Plan.validate task b with
            | Ok () -> ()
            | Error e ->
                Alcotest.fail
                  (Printf.sprintf "%s parallel plan invalid: %s" what e))
        | _ -> ())
      planners
  done

let test_jobs_one_matches_legacy_stats () =
  (* jobs=1 is the sequential path: same outcome, and the same number of
     full checks and cache hits as planning used to perform. *)
  let task = random_task 2 in
  let a = Astar.plan ~config:(cfg 1) task in
  let b = Astar.plan ~config:(cfg 1) task in
  Alcotest.(check int) "deterministic sat_checks"
    a.Planner.stats.Planner.sat_checks b.Planner.stats.Planner.sat_checks;
  Alcotest.(check int) "deterministic cache_hits"
    a.Planner.stats.Planner.cache_hits b.Planner.stats.Planner.cache_hits;
  Alcotest.(check bool) "check time metered" true
    (a.Planner.stats.Planner.check_seconds >= 0.0
    && a.Planner.stats.Planner.check_seconds
       <= a.Planner.stats.Planner.elapsed +. 1e-3)

let test_engine_batch_matches_sequential () =
  let task = random_task 5 in
  let n_types = Action.Set.cardinal task.Task.actions in
  let counts = task.Task.counts in
  (* Walk a random monotone path through the lattice, batch-checking every
     successor frontier with both engines. *)
  let seq_engine = Sat_engine.create ~jobs:1 task in
  let par_engine = Sat_engine.create ~jobs:3 task in
  let g = Kutil.Prng.create ~seed:99 in
  let v = Compact.origin task.Task.actions in
  let steps = Array.fold_left ( + ) 0 counts in
  for _ = 1 to steps do
    let cands = ref [] in
    for a = n_types - 1 downto 0 do
      if v.(a) < counts.(a) then
        cands :=
          {
            Sat_engine.last_type = Some a;
            last_block = Some task.Task.blocks_by_type.(a).(v.(a));
            v =
              (let v' = Kutil.Vec_key.copy v in
               v'.(a) <- v'.(a) + 1;
               v');
          }
          :: !cands
    done;
    let cands = Array.of_list !cands in
    let seq_ok = Sat_engine.check_batch seq_engine cands in
    let par_ok = Sat_engine.check_batch par_engine cands in
    Alcotest.(check (array bool)) "batch verdicts agree" seq_ok par_ok;
    (* Advance along a random open successor. *)
    let open_types =
      Array.of_list
        (List.filter (fun a -> v.(a) < counts.(a))
           (List.init n_types Fun.id))
    in
    let a = open_types.(Kutil.Prng.int g (Array.length open_types)) in
    v.(a) <- v.(a) + 1
  done;
  Alcotest.(check int) "same full-check count"
    (Sat_engine.checks_performed seq_engine)
    (Sat_engine.checks_performed par_engine);
  Sat_engine.shutdown seq_engine;
  Sat_engine.shutdown par_engine

let suite =
  ( "parallel",
    [
      Alcotest.test_case "jobs=1 vs jobs=4 differential" `Slow
        test_differential_planning;
      Alcotest.test_case "topology A differential" `Quick
        test_differential_label_a;
      Alcotest.test_case "jobs=1 vs jobs=8 differential (speculation)" `Slow
        test_differential_jobs8;
      Alcotest.test_case "jobs=1 legacy stats" `Quick
        test_jobs_one_matches_legacy_stats;
      Alcotest.test_case "engine batch = sequential" `Quick
        test_engine_batch_matches_sequential;
    ] )
