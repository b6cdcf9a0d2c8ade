type config = {
  budget_seconds : float option;
  use_cache : bool;
  incremental : bool;
  ensemble : int;
  quantile : float;
}

let default_config =
  {
    budget_seconds = Some 120.0;
    use_cache = true;
    incremental = true;
    ensemble = 1;
    quantile = 1.0;
  }

let with_budget budget_seconds = { default_config with budget_seconds }

let with_incremental incremental config = { config with incremental }

let with_ensemble ?(quantile = 1.0) ensemble config =
  if ensemble < 1 then
    invalid_arg "Planner.with_ensemble: ensemble must be >= 1";
  if not (Float.is_finite quantile) || quantile <= 0.0 || quantile > 1.0 then
    invalid_arg "Planner.with_ensemble: quantile must be in (0, 1]";
  { config with ensemble; quantile }

(* Horizon of the default ensemble: matrices sample the forecast out to
   this many weeks, roughly the plan-execution span §7.1 describes. *)
let ensemble_horizon_weeks = 8

(* Resolve the config's ensemble request against the task, at every
   planner's entry.  A task that already carries an ensemble wins (the
   caller constructed it deliberately); otherwise k > 1 attaches a
   deterministic default built from a fixed-seed forecast over the
   task's own classes — the same matrices in any process.  k = 1 leaves the task untouched: the single-matrix path. *)
let robust_task config (task : Task.t) =
  if config.ensemble <= 1 || Option.is_some task.Task.ensemble then task
  else begin
    let names =
      Array.of_list
        (List.map (fun (d : Demand.t) -> d.Demand.name) task.Task.demands)
    in
    (* Gentler than the forecast defaults: the ensemble must leave the
       task feasible under typical theta headroom, or robustness would
       veto every plan.  0.5%/week over the 8-week horizon with 25%
       surges caps any factor near 1.3x. *)
    let fc =
      Forecast.create ~weekly_growth:0.005 ~spike_magnitude:0.25
        ~prng:(Kutil.Prng.create ~seed:0x6b6c6f74) ()
    in
    Task.with_ensemble
      (Some
         (Ensemble.generate ~quantile:config.quantile ~k:config.ensemble
            ~horizon_weeks:ensemble_horizon_weeks fc ~class_names:names))
      task
  end

type stats = {
  expanded : int;
  generated : int;
  sat_checks : int;
  cache_hits : int;
  check_seconds : float;
  elapsed : float;
}

type outcome =
  | Found of Plan.t
  | Infeasible
  | Timeout of Plan.t option
  | Unsupported of string

type result = { planner : string; outcome : outcome; stats : stats }

let cost_of r =
  match r.outcome with
  | Found p | Timeout (Some p) -> Some p.Plan.cost
  | Infeasible | Timeout None | Unsupported _ -> None

let pp_result fmt r =
  let outcome =
    match r.outcome with
    | Found p -> Printf.sprintf "plan found, cost %g" p.Plan.cost
    | Infeasible -> "infeasible"
    | Timeout (Some p) ->
        Printf.sprintf "timeout (best cost so far %g)" p.Plan.cost
    | Timeout None -> "timeout (no plan found)"
    | Unsupported why -> Printf.sprintf "unsupported: %s" why
  in
  Format.fprintf fmt
    "%s: %s  [expanded %d, generated %d, checks %d (%.3fs), cache hits %d, \
     %.3fs]"
    r.planner outcome r.stats.expanded r.stats.generated r.stats.sat_checks
    r.stats.check_seconds r.stats.cache_hits r.stats.elapsed
