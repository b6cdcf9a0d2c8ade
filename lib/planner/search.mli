(** The search harness under every planner.

    {!run} owns what the planners used to repeat: the ensemble
    resolution ({!Planner.robust_task}), the budget and the start time,
    the satisfiability engine or bare checker and its shutdown, the
    expanded/generated counters, and the {!Planner.stats} and
    {!Planner.result} records.  A planner passes in only its frontier
    policy: which state to expand next, where to poll the budget and
    when to stop.  The policy returns a {!Planner.outcome}. *)

type t
(** One planning run: the resolved task, its budget, its counters and
    the lazily created engine or checker. *)

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
    is [Unsupported why] with zero counters.  The engine and checker
    are shut down on every exit path, exceptions included.  The stats
    read the engine's checks, hits and check seconds, plus the bare
    checker's checks; a run that created neither reports zero.  The
    elapsed time is read after the shutdown, so it includes joining the
    engine's worker domains. *)

val engine : t -> Sat_engine.t
(** The run's satisfiability engine, created on first use from the
    config's [jobs], [use_cache] and [incremental]. *)

val checker : t -> Constraint.t
(** A bare checker without cache or pool, for the baselines that
    operate blocks in arbitrary order (MRC) or check every generation
    in full (Janus).  Created on first use with the config's
    [incremental]. *)

val poll : t -> unit
(** Raise {!Expired} when the budget is spent. *)

val expand : ?n:int -> t -> unit
(** Count [n] (default 1) expanded states or committed steps. *)

val generate : ?n:int -> t -> unit
(** Count [n] (default 1) generated candidate states. *)

val succ : t -> Compact.t -> int -> Sat_engine.candidate
(** [succ s v a] is the engine candidate for operating the next block
    of type [a] from state [v]: the successor state, with [a] and that
    block as the last step. *)

val plan_of_types : t -> int list -> Plan.t
(** The plan that operates the given action types in order, each type's
    blocks in their canonical order. *)
