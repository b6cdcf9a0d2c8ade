(** Operation simulator: executing a migration plan in the real world
    (§7.1–7.2).

    A plan is a logical action sequence; executing it takes weeks, during
    which the configuration push pipeline can fail ("an undrain step may
    be unsuccessful if the network management system experiences an
    outage"), demand grows and surges, and operators re-audit every step
    before performing it.  This simulator reproduces that workflow:

    + each week, demands are re-forecast ({!Forecast});
    + before each step, the post-step state is audited under the current
      demand ("we add extra audits and safety checks to Klotski's plans
      during operation");
    + a failed audit triggers replanning of the remainder with the
      updated demand ({!Klotski.replan});
    + the operation itself can fail with some probability, consuming the
      step slot without progress — the retry happens next slot.

    The simulation is deterministic given the PRNG. *)

type config = {
  failure_probability : float;
      (** Per-step probability that the push pipeline fails (default 0.1). *)
  steps_per_week : int;  (** Operation slots per week (default 2). *)
  max_weeks : int;  (** Give up after this long (default 52). *)
  planner_budget : float;  (** Seconds per replanning run (default 60). *)
  surprise_probability : float;
      (** Per-class per-week probability of a {e beyond-forecast} demand
          surprise — realized demand the forecast did not predict, the
          drift that forces replans.  Default 0.0: no surprises, and no
          PRNG draws, so default runs replay the historical stream
          exactly. *)
  surprise_magnitude : float;
      (** Multiplicative size of a surprise (default 0.5 = +50%),
          applied on top of the week's forecast factor for one week. *)
  ensemble : int;
      (** Replan robustly against this many demand matrices (default 1 —
          the historical single-forecast replanning). *)
  quantile : float;
      (** Admission quantile for ensemble replans (default 1.0). *)
}

val default_config : config

type event =
  | Step_completed of { week : int; block : int; label : string }
  | Step_failed of { week : int; block : int; label : string }
      (** The push pipeline failed; the step will be retried. *)
  | Audit_failed of { week : int; block : int; reason : string }
      (** The next step is no longer safe under current demand; [reason]
          ends with the {!Constraint.verdict_name} of the constraint it
          breaks. *)
  | Demand_surprise of { week : int; cls : string; factor : float }
      (** A class's realized demand exceeded its forecast this week. *)
  | Replanned of { week : int; cost : float; steps : int }
  | Completed of { week : int }
  | Aborted of { week : int; reason : string }

val pp_event : Format.formatter -> event -> unit

type outcome = {
  events : event list;  (** In chronological order. *)
  weeks : int;  (** Weeks elapsed when the run ended. *)
  completed : bool;
  failures : int;  (** Push-pipeline failures survived. *)
  replans : int;  (** Replanning rounds triggered by audits. *)
  surprises : int;  (** Beyond-forecast demand surprises injected. *)
}

val run :
  ?config:config ->
  prng:Kutil.Prng.t ->
  forecast:Forecast.t ->
  Task.t ->
  Plan.t ->
  outcome
(** Execute [plan] on [task] under the forecast.  The task's demand scales
    are treated as the week-0 calibration; class volumes at week [w] are
    the calibrated volumes times {!Forecast.scale_at}. *)
