(* Robust ensemble satisfiability: the k-matrix admission check must be
   a strict generalization of the single-forecast engine.  Three layers
   of evidence:

   - differential: at k = 1 (and under a uniform all-ones ensemble at
     k > 1, which keeps the aux machinery live but mathematically inert)
     every planner produces bit-identical plans, costs and verdicts, and
     the same check/cache counters;
   - properties: at q = 1.0 admission is monotone in the matrix set
     (safe under an ensemble implies safe under every sub-ensemble, and
     growing the ensemble never admits a previously rejected state), and
     the quantile interpolates between the conjunction (q = 1.0) and the
     most permissive single matrix (q -> 0) of per-matrix single-task
     checks;
   - seed stability: the generated matrices are bitwise reproducible
     from the forecast seed, in any process, and so is the robust plan
     built on the ensemble a planner attaches itself. *)

let cfg ~incremental =
  Planner.with_incremental incremental (Planner.with_budget (Some 60.0))

(* Small randomized HGRID scenarios, as in the incremental suite. *)
let random_params seed =
  let g = Kutil.Prng.create ~seed in
  {
    (Gen.params_a ()) with
    Gen.label = Printf.sprintf "rob%d" seed;
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
  | Planner.Found p ->
      Printf.sprintf "found %.9f [%s]" p.Plan.cost
        (String.concat "," (List.map string_of_int p.Plan.blocks))
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

let class_names (task : Task.t) =
  Array.of_list
    (List.map (fun (d : Demand.t) -> d.Demand.name) task.Task.demands)

let n_classes (task : Task.t) = Array.length task.Task.compiled

(* The exact one-matrix ensemble [Planner.robust_task] would build. *)
let k1_ensemble task =
  let fc = Forecast.create ~prng:(Kutil.Prng.create ~seed:0x6b6c6f74) () in
  Ensemble.generate ~quantile:1.0 ~k:1
    ~horizon_weeks:Planner.ensemble_horizon_weeks fc
    ~class_names:(class_names task)

let uniform_ensemble ~k task =
  Ensemble.create (Array.init k (fun _ -> Array.make (n_classes task) 1.0))

(* Random ensembles: row 0 all ones, rows 1+ drawn from [0.6, 1.6]. *)
let random_ensemble ?quantile ~seed ~k task =
  let g = Kutil.Prng.create ~seed in
  Ensemble.create ?quantile
    (Array.init k (fun m ->
         Array.init (n_classes task) (fun _ ->
             if m = 0 then 1.0 else 0.6 +. Kutil.Prng.float g 1.0)))

(* ------------------------------------------------------------------ *)
(* Differential: the ensemble path at k=1 semantics is the legacy path. *)

let check_equivalent ~what reference candidate =
  Alcotest.(check string)
    (what ^ " outcome")
    (outcome_fingerprint reference.Planner.outcome)
    (outcome_fingerprint candidate.Planner.outcome);
  Alcotest.(check int)
    (what ^ " sat_checks")
    reference.Planner.stats.Planner.sat_checks
    candidate.Planner.stats.Planner.sat_checks;
  Alcotest.(check int)
    (what ^ " cache_hits")
    reference.Planner.stats.Planner.cache_hits
    candidate.Planner.stats.Planner.cache_hits

let check_k1 label task =
  List.iter
    (fun (name, plan) ->
      List.iter
        (fun incremental ->
          let config = cfg ~incremental in
          let reference = plan config task in
          let what = Printf.sprintf "%s: %s inc=%b" label name incremental in
          (* --ensemble 1 resolves to the untouched task... *)
          check_equivalent ~what:(what ^ " via config") reference
            (plan (Planner.with_ensemble ~quantile:1.0 1 config) task);
          (* ...and an explicit one-matrix ensemble must not engage the
             ensemble machinery either. *)
          check_equivalent ~what:(what ^ " via task") reference
            (plan config (Task.with_ensemble (Some (k1_ensemble task)) task)))
        [ true; false ])
    planners

let test_k1_differential_random () =
  for seed = 1 to 2 do
    check_k1 (Printf.sprintf "seed %d" seed) (random_task seed)
  done

let test_k1_differential_label_a () =
  check_k1 "topology A" (Task.of_scenario (Gen.scenario_of_label "A"))

let test_uniform_ensemble_inert () =
  (* All-ones matrices at k=4: the aux deposits, per-matrix θ scans and
     quantile aggregation all run, and must change nothing —
     every extra matrix is the base matrix. *)
  List.iter
    (fun (label, task) ->
      let e = uniform_ensemble ~k:4 task in
      List.iter
        (fun incremental ->
          List.iter
            (fun (name, plan) ->
              let config = cfg ~incremental in
              let reference = plan config task in
              check_equivalent
                ~what:
                  (Printf.sprintf "%s: %s inc=%b uniform k=4" label name
                     incremental)
                reference
                (plan config (Task.with_ensemble (Some e) task)))
            planners)
        [ true; false ])
    [ ("seed 3", random_task 3); ("topology A", Task.of_scenario (Gen.scenario_of_label "A")) ]

(* ------------------------------------------------------------------ *)
(* Properties of the admission predicate on raw checkers. *)

let random_states task ~seed ~n =
  let g = Kutil.Prng.create ~seed in
  let counts = task.Task.counts in
  List.init n (fun _ ->
      Array.map (fun c -> Kutil.Prng.int g (c + 1)) counts)

let checked task ensemble v =
  let ck = Constraint.create (Task.with_ensemble ensemble task) in
  Constraint.check ck v

let test_subset_monotone () =
  (* q = 1.0: safe under the ensemble => safe under any sub-ensemble
     (and, contrapositive, growing the ensemble never admits a state a
     smaller ensemble rejected). *)
  List.iter
    (fun seed ->
      let task = random_task seed in
      let e4 = random_ensemble ~seed:(seed * 31) ~k:4 task in
      let subsets = [ [| 0 |]; [| 0; 1 |]; [| 0; 3 |]; [| 0; 1; 2 |] ] in
      List.iter
        (fun v ->
          let full = checked task (Some e4) v in
          if full then
            List.iter
              (fun matrices ->
                Alcotest.(check bool)
                  (Printf.sprintf "seed %d: safe under sub-ensemble [%s]" seed
                     (String.concat ";"
                        (Array.to_list (Array.map string_of_int matrices))))
                  true
                  (checked task (Some (Ensemble.sub e4 ~matrices)) v))
              subsets
          else begin
            (* Rejected at k=4 => rejected by any extension of e4. *)
            let bigger =
              Ensemble.create
                (Array.append
                   (Array.init 4 (fun m -> Ensemble.row e4 m))
                   [| Array.make (n_classes task) 1.0 |])
            in
            Alcotest.(check bool)
              (Printf.sprintf "seed %d: still rejected at k=5" seed)
              false
              (checked task (Some bigger) v)
          end)
        (random_states task ~seed:(seed * 7) ~n:12))
    [ 1; 4 ]

(* The name of the constraint state [v] breaks under [ensemble]. *)
let broken task ensemble v =
  let ck = Constraint.create (Task.with_ensemble ensemble task) in
  ignore (Constraint.check ck v);
  Constraint.verdict_name (Constraint.verdict ck)

let test_quantile_bounds () =
  (* q = 1.0 is the conjunction, q -> 0 the disjunction, of the per-matrix
     single-task checks (each matrix applied via Task.scale_demands).  A
     rejection the port bound does not explain names the quantile. *)
  let quantile_rejections = ref 0 in
  List.iter
    (fun seed ->
      let task = random_task seed in
      let k = 4 in
      let rows =
        Array.init k (fun m ->
            Ensemble.row (random_ensemble ~seed:(seed * 13) ~k task) m)
      in
      let e_all = Ensemble.create ~quantile:1.0 rows in
      let e_any = Ensemble.create ~quantile:0.01 rows in
      Alcotest.(check int) "q=1.0 needs all" k (Ensemble.need e_all);
      Alcotest.(check int) "q->0 needs one" 1 (Ensemble.need e_any);
      List.iter
        (fun v ->
          let single m =
            checked (Task.scale_demands task rows.(m)) None v
          in
          let conj = ref true and disj = ref false in
          for m = 0 to k - 1 do
            let ok = single m in
            conj := !conj && ok;
            disj := !disj || ok
          done;
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: q=1.0 = all matrices" seed)
            !conj
            (checked task (Some e_all) v);
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: q->0 = any matrix" seed)
            !disj
            (checked task (Some e_any) v);
          let ports = String.equal (broken task None v) "port bound" in
          List.iter
            (fun (e, ok) ->
              let expected =
                if ports then "port bound"
                else if ok then "admitted"
                else "ensemble quantile"
              in
              if String.equal expected "ensemble quantile" then
                incr quantile_rejections;
              Alcotest.(check string)
                (Printf.sprintf "seed %d: the verdict names" seed)
                expected (broken task (Some e) v))
            [ (e_all, !conj); (e_any, !disj) ])
        (random_states task ~seed:(seed * 11) ~n:8))
    [ 2; 5 ];
  Alcotest.(check bool) "some state breaks the quantile" true
    (!quantile_rejections > 0)

let test_need_edges () =
  let e k q = random_ensemble ~quantile:q ~seed:42 ~k (random_task 1) in
  List.iter
    (fun (k, q, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "need k=%d q=%.2f" k q)
        expected
        (Ensemble.need (e k q)))
    [
      (1, 1.0, 1);
      (1, 0.01, 1);
      (4, 1.0, 4);
      (4, 0.75, 3);
      (4, 0.5, 2);
      (4, 0.25, 1);
      (4, 0.01, 1);
      (5, 0.5, 3);
    ]

let test_create_validation () =
  let task = random_task 1 in
  let n = n_classes task in
  let raises what f =
    Alcotest.check_raises what
      (Invalid_argument
         (match what with
         | "base row" ->
             "Ensemble.create: matrix 0 is the base forecast (factors 1.0)"
         | "ragged" -> "Ensemble.create: ragged factor matrix"
         | "negative" -> "Ensemble.create: factors must be finite and >= 0"
         | _ -> "Ensemble.create: quantile must be in (0, 1]"))
      f
  in
  raises "base row" (fun () ->
      ignore (Ensemble.create [| Array.make n 1.1 |]));
  raises "ragged" (fun () ->
      ignore (Ensemble.create [| Array.make n 1.0; Array.make (n + 1) 1.0 |]));
  raises "negative" (fun () ->
      ignore (Ensemble.create [| Array.make n 1.0; Array.make n (-0.5) |]));
  raises "quantile" (fun () ->
      ignore (Ensemble.create ~quantile:0.0 [| Array.make n 1.0 |]))

(* ------------------------------------------------------------------ *)
(* Seed stability: same seed, same matrices, bitwise, in any process. *)

let generate_for task ~seed =
  let fc = Forecast.create ~prng:(Kutil.Prng.create ~seed) () in
  Ensemble.generate ~quantile:1.0 ~k:4
    ~horizon_weeks:Planner.ensemble_horizon_weeks fc
    ~class_names:(class_names task)

let test_generate_stable () =
  let task = random_task 2 in
  let a = generate_for task ~seed:77 in
  let b = generate_for task ~seed:77 in
  Alcotest.(check int) "same id" (Ensemble.id a) (Ensemble.id b);
  for m = 0 to Ensemble.k a - 1 do
    let ra = Ensemble.row a m and rb = Ensemble.row b m in
    Array.iteri
      (fun i fa ->
        Alcotest.(check bool)
          (Printf.sprintf "matrix %d class %d bitwise equal" m i)
          true
          (Int64.equal (Int64.bits_of_float fa) (Int64.bits_of_float rb.(i))))
      ra
  done;
  (* Distinct seeds must not alias in the cache-keyed identity. *)
  Alcotest.(check bool) "distinct seeds, distinct ids" false
    (Ensemble.id a = Ensemble.id (generate_for task ~seed:78))

let test_planner_jobs_stable () =
  (* The default ensemble is attached inside the planner: two planning
     jobs on the same task must produce the identical robust plan. *)
  let task = random_task 1 in
  let config =
    Planner.with_ensemble ~quantile:1.0 3 (cfg ~incremental:true)
  in
  Alcotest.(check string) "robust plan re-run identical"
    (outcome_fingerprint (Astar.plan ~config task).Planner.outcome)
    (outcome_fingerprint (Astar.plan ~config task).Planner.outcome)

let suite =
  ( "robust",
    [
      Alcotest.test_case "k=1 differential (random)" `Slow
        test_k1_differential_random;
      Alcotest.test_case "k=1 differential (topology A)" `Quick
        test_k1_differential_label_a;
      Alcotest.test_case "uniform ensemble inert" `Quick
        test_uniform_ensemble_inert;
      Alcotest.test_case "subset monotone at q=1.0" `Quick
        test_subset_monotone;
      Alcotest.test_case "quantile bounds" `Quick test_quantile_bounds;
      Alcotest.test_case "need edge cases" `Quick test_need_edges;
      Alcotest.test_case "create validation" `Quick test_create_validation;
      Alcotest.test_case "generate seed-stable" `Quick test_generate_stable;
      Alcotest.test_case "planner jobs-stable" `Quick
        test_planner_jobs_stable;
    ] )
