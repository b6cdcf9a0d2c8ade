(** Common planner interface: configuration, statistics and outcomes.

    Every planner takes a {!Task.t} and a {!config} and returns a
    {!result}.  The paper caps all planners at 24 hours; [budget_seconds]
    reproduces that cutoff at a laptop-friendly default. *)

type config = {
  budget_seconds : float option;
      (** Wall-clock budget; [None] is unlimited.  Exhausting it yields
          [Timeout] — the crosses of Figures 9–11. *)
  use_cache : bool;
      (** Efficient satisfiability checking (the cache table T{_c} of
          §4.2).  [false] reproduces the "Klotski w/o ESC" ablation. *)
  incremental : bool;
      (** Incremental demand evaluation in the satisfiability checkers
          (default [true]; see {!Constraint.create}).  [false] runs the
          historical full ECMP replay on every check — verdicts, plans and
          costs are identical either way. *)
  ensemble : int;
      (** Robust planning: number of demand matrices k to plan against
          (default [1] — the historical single-matrix admission,
          bit-identical).  With k > 1, planners attach a deterministic
          forecast ensemble to the task ({!robust_task}) unless the task
          already carries one, and every satisfiability check judges all
          k matrices. *)
  quantile : float;
      (** CVaR-style admission quantile q (default [1.0]): a state is
          admitted when safe under at least ⌈q·k⌉ of the k matrices.
          q = 1.0 demands safety under all of them. *)
}

val default_config : config
(** 120-second budget, cache enabled, incremental checking. *)

val with_budget : float option -> config
(** {!default_config} with another budget. *)

val with_incremental : bool -> config -> config
(** [with_incremental b config] toggles incremental demand evaluation. *)

val with_ensemble : ?quantile:float -> int -> config -> config
(** [with_ensemble ?quantile k config] plans against k demand matrices
    with admission quantile [quantile] (default 1.0).  Raises
    [Invalid_argument] when [k < 1] or the quantile leaves (0, 1]. *)

val ensemble_horizon_weeks : int
(** Forecast horizon (weeks) the default ensemble spreads its growth
    percentiles over; exported so tests and benchmarks can rebuild the
    exact matrices {!robust_task} attaches. *)

val robust_task : config -> Task.t -> Task.t
(** The task every planner actually plans: with [config.ensemble] > 1
    and no ensemble on the task, attaches a deterministic default built
    from a fixed-seed {!Forecast.t} over the task's classes
    ({!Ensemble.generate}); a task-carried ensemble always wins, and
    k = 1 returns the task unchanged.  The search harness ({!Search.run})
    calls this before any planner sees the task, so a config is
    interpreted identically everywhere. *)

type stats = {
  expanded : int;  (** States popped / steps committed. *)
  generated : int;  (** Candidate states examined. *)
  sat_checks : int;  (** Full (uncached) satisfiability checks. *)
  cache_hits : int;  (** Checks answered by the cache table. *)
  check_seconds : float;
      (** Wall-clock seconds spent inside the search's cached
          satisfiability checks ({!Search.check}); [0.] for planners
          that do not meter it. *)
  elapsed : float;
      (** Planning wall-clock seconds, from the ensemble resolution to
          the outcome. *)
}

type outcome =
  | Found of Plan.t  (** An optimal (or, for MRC, greedy) plan. *)
  | Infeasible  (** Proven: no action sequence satisfies the constraints. *)
  | Timeout of Plan.t option  (** Budget exhausted; best plan found so far. *)
  | Unsupported of string
      (** The planner cannot handle this migration type (MRC and Janus on
          topology-changing migrations, §6.3). *)

type result = { planner : string; outcome : outcome; stats : stats }

val cost_of : result -> float option
(** The cost of the plan carried by the outcome, if any. *)

val pp_result : Format.formatter -> result -> unit
