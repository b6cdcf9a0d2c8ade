module Prng = Kutil.Prng

type config = {
  failure_probability : float;
  steps_per_week : int;
  max_weeks : int;
  planner_budget : float;
  surprise_probability : float;
  surprise_magnitude : float;
  ensemble : int;
  quantile : float;
}

let default_config =
  {
    failure_probability = 0.1;
    steps_per_week = 2;
    max_weeks = 52;
    planner_budget = 60.0;
    surprise_probability = 0.0;
    surprise_magnitude = 0.5;
    ensemble = 1;
    quantile = 1.0;
  }

type event =
  | Step_completed of { week : int; block : int; label : string }
  | Step_failed of { week : int; block : int; label : string }
  | Audit_failed of { week : int; block : int; reason : string }
  | Demand_surprise of { week : int; cls : string; factor : float }
  | Replanned of { week : int; cost : float; steps : int }
  | Completed of { week : int }
  | Aborted of { week : int; reason : string }

let pp_event fmt = function
  | Step_completed { week; label; _ } ->
      Format.fprintf fmt "week %2d: completed %s" week label
  | Step_failed { week; label; _ } ->
      Format.fprintf fmt "week %2d: push pipeline failed on %s (will retry)"
        week label
  | Audit_failed { week; reason; _ } ->
      Format.fprintf fmt "week %2d: audit failed - %s" week reason
  | Demand_surprise { week; cls; factor } ->
      Format.fprintf fmt "week %2d: demand surprise - %s at %.2fx forecast"
        week cls factor
  | Replanned { week; cost; steps } ->
      Format.fprintf fmt "week %2d: replanned remainder (%d steps, cost %g)"
        week steps cost
  | Completed { week } -> Format.fprintf fmt "week %2d: migration complete" week
  | Aborted { week; reason } ->
      Format.fprintf fmt "week %2d: ABORTED - %s" week reason

type outcome = {
  events : event list;
  weeks : int;
  completed : bool;
  failures : int;
  replans : int;
  surprises : int;
}

(* Realized per-class demand factors for a week: the forecast's factor,
   optionally hit by a beyond-forecast surprise drawn from the run PRNG.
   Surprise draws are gated on the probability so the default (0.0)
   consumes no PRNG values — runs without surprises replay the
   historical stream exactly. *)
let week_factors config ~prng ~forecast ~emit ~surprises (task : Task.t)
    ~week =
  let factors =
    Array.of_list
      (List.map
         (fun (d : Demand.t) ->
           Forecast.scale_at forecast ~week ~class_name:d.Demand.name)
         task.Task.demands)
  in
  if config.surprise_probability > 0.0 && week > 0 then
    List.iteri
      (fun i (d : Demand.t) ->
        if Prng.float prng 1.0 < config.surprise_probability then begin
          factors.(i) <- factors.(i) *. (1.0 +. config.surprise_magnitude);
          incr surprises;
          emit
            (Demand_surprise
               {
                 week;
                 cls = d.Demand.name;
                 factor = 1.0 +. config.surprise_magnitude;
               })
        end)
      task.Task.demands;
  factors

(* Audit: the verdict on performing [block] next, from the executed
   prefix, under this week's demand.  Audits judge the {e realized} single matrix —
   any planning ensemble on the task is stripped. *)
let audit (task : Task.t) ~executed ~block =
  let ck = Constraint.create (Task.with_ensemble None task) in
  List.iter (Constraint.apply_block ck) executed;
  Constraint.apply_block ck block;
  Constraint.verdict ~last_block:block ck

let run ?(config = default_config) ~prng ~forecast (task : Task.t)
    (plan : Plan.t) =
  let events = ref [] in
  let emit e = events := e :: !events in
  let failures = ref 0 and replans = ref 0 and surprises = ref 0 in
  let executed = ref [] in
  (* [rest] holds the remaining block ids, in the base task's numbering. *)
  let rest = ref plan.Plan.blocks in
  let week = ref 0 in
  let finished = ref false and aborted = ref false in
  while (not !finished) && (not !aborted) && !week < config.max_weeks do
    (* One draw of realized factors per week: the audits and any replan
       this week see the same demand. *)
    let factors =
      week_factors config ~prng ~forecast ~emit ~surprises task ~week:!week
    in
    let week_task = Task.scale_demands task factors in
    let slot = ref 0 in
    while
      !slot < config.steps_per_week && (not !finished) && not !aborted
    do
      incr slot;
      match !rest with
      | [] -> finished := true
      | block :: tail ->
          let label = task.Task.blocks.(block).Blocks.label in
          let verdict = audit week_task ~executed:!executed ~block in
          if verdict <> Constraint.Admitted then begin
            emit
              (Audit_failed
                 {
                   week = !week;
                   block;
                   reason =
                     Printf.sprintf "%s is unsafe under week-%d demand: %s"
                       label !week
                       (Constraint.verdict_name verdict);
                 });
            (* Replan the remainder under the realized demand — robustly
               when the config asks for an ensemble. *)
            let replan_config =
              let c = Planner.with_budget (Some config.planner_budget) in
              if config.ensemble > 1 then
                Planner.with_ensemble ~quantile:config.quantile
                  config.ensemble c
              else c
            in
            let result, _, mapping =
              Klotski.replan ~config:replan_config task ~executed:!executed
                ~demand_scales:factors
            in
            incr replans;
            match result.Planner.outcome with
            | Planner.Found p ->
                rest := List.map (fun b -> mapping.(b)) p.Plan.blocks;
                emit
                  (Replanned
                     {
                       week = !week;
                       cost = p.Plan.cost;
                       steps = Plan.length p;
                     })
            | Planner.Infeasible | Planner.Timeout _ | Planner.Unsupported _
              ->
                aborted := true;
                emit
                  (Aborted
                     {
                       week = !week;
                       reason = "no safe remainder plan under current demand";
                     })
          end
          else if Prng.float prng 1.0 < config.failure_probability then begin
            incr failures;
            emit (Step_failed { week = !week; block; label })
          end
          else begin
            executed := !executed @ [ block ];
            rest := tail;
            emit (Step_completed { week = !week; block; label });
            if List.is_empty tail then finished := true
          end
    done;
    incr week
  done;
  if !finished then emit (Completed { week = !week })
  else if not !aborted then
    emit
      (Aborted { week = !week; reason = "max duration exceeded" });
  {
    events = List.rev !events;
    weeks = !week;
    completed = !finished;
    failures = !failures;
    replans = !replans;
    surprises = !surprises;
  }
