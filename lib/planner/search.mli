(** The search harness under every planner.

    {!run} owns what the planners used to repeat: the ensemble
    resolution ({!Planner.robust_task}), the budget and the start time,
    the run's one checker and its satisfiability cache, the
    expanded/generated counters, and the {!Planner.stats} and
    {!Planner.result} records.  A planner passes in only its frontier
    policy: which state to expand next, where to poll the budget and
    when to stop.  The policy returns a {!Planner.outcome}. *)

type t
(** One planning run: the resolved task, its budget, its counters, its
    cache and the lazily created checker. *)

type candidate = {
  last_type : int option;  (** Action type of the step reaching [v]. *)
  last_block : int option;  (** Block operated by that step (funneling). *)
  v : Compact.t;  (** The compact state to check. *)
}
(** A state to check, with the step that reaches it. *)

exception Expired
(** Raised by {!poll} once the budget is spent.  {!run} turns an
    uncaught one into [Timeout None]; a policy that holds a best plan
    so far catches it and returns [Timeout (Some plan)] itself. *)

val run :
  name:string ->
  ?refuse:(Task.t -> string option) ->
  Planner.config ->
  Task.t ->
  (t -> Task.t -> Planner.outcome) ->
  Planner.result
(** [run ~name ?refuse config task policy] resolves the task through
    {!Planner.robust_task}, starts the budget, and calls
    [policy s task'] with the resolved task [task'].  When
    [refuse task'] is [Some why] the policy never runs and the outcome
    is [Unsupported why] with zero counters.  The stats read the
    checker's full checks and the cache's hits, and the seconds spent
    in {!check}; a run that never created the checker reports zero. *)

val check : t -> candidate -> bool
(** Satisfiability of a candidate through the run's cache (ESC, §4.2)
    and checker: a state the cache holds is a hit and runs no check.
    The cache follows the config's [use_cache], the checker its
    [incremental].  A*, DP, Greedy and Exhaustive check every candidate
    here, one at a time; the seconds spent count as [check_seconds]. *)

val checker : t -> Constraint.t
(** The run's checker, created on first use with the config's
    [incremental].  The baselines that operate blocks in arbitrary
    order (MRC) or check every generation in full (Janus) call it
    directly, without the cache. *)

val poll : t -> unit
(** Raise {!Expired} when the budget is spent. *)

val expand : t -> unit
(** Count one expanded state or committed step. *)

val generate : t -> unit
(** Count one generated candidate state. *)

val succ : t -> Compact.t -> int -> candidate
(** [succ s v a] is the candidate for operating the next block of type
    [a] from state [v]: the successor state, with [a] and that block as
    the last step. *)

val plan_of_types : t -> int list -> Plan.t
(** The plan that operates the given action types in order, each type's
    blocks in their canonical order. *)
