(** The parallel satisfiability engine: batched, cached, multicore
    constraint checking for the planners.

    An engine bundles a {!Kutil.Domain_pool} of workers, a private
    {!Constraint.t} checker per worker (each with its own topology copy
    and ECMP scratch), and one shared, locked {!Cache.t}.  Planners hand
    it batches of candidate states and get the per-candidate verdicts
    back in order.  Three planners batch: A* checks the successors of
    one expansion, DP a whole lattice layer, Greedy the successors of
    one step.  Exhaustive checks one state at a time with {!check}, so
    it runs on the calling domain at every job count; MRC and Janus use
    a bare {!Constraint.t} and no engine.

    With one worker no domains are spawned and every batch is evaluated
    inline in item order through the same cache protocol as the historical
    sequential code path, so results, counters and costs are bit-identical
    to pre-engine planning. *)

type candidate = {
  last_type : int option;  (** Action type of the step reaching [v]. *)
  last_block : int option;  (** Block operated by that step (funneling). *)
  v : Compact.t;  (** The compact state to check. *)
}

type t

val create : ?jobs:int -> ?use_cache:bool -> ?incremental:bool -> Task.t -> t
(** [create task] builds an engine with [jobs] workers (default 1),
    capped at the machine's core count
    ([Domain.recommended_domain_count ()]), and the cache enabled unless
    [~use_cache:false] (the "w/o ESC" ablation).  [incremental] (default
    [true]) selects delta demand evaluation in every worker's checker
    (see {!Constraint.create}); workers stay independent — each owns its
    private incremental state.  Raises [Invalid_argument] when
    [jobs < 1]. *)

val jobs : t -> int
(** The effective worker count: [min jobs cores]. *)

val incremental : t -> bool
(** The [incremental] flag every worker's checker is created with. *)

val check : t -> ?last_type:int -> ?last_block:int -> Compact.t -> bool
(** Check a single state on the calling domain (worker 0). *)

val check_batch : t -> candidate array -> bool array
(** Check a batch of candidates, fanning the uncached evaluations out
    over the pool; [result.(i)] is candidate [i]'s verdict.  It runs
    exactly the checks and hits of checking the candidates one by one,
    at every job count: the pool gets each cache key ({!Cache.key_of})
    once, and a candidate whose key repeats an earlier one in the batch
    (a DP layer without funneling reaches one state by two action types)
    is asked on the calling domain after the map, as a cache hit. *)

val checks_performed : t -> int
(** Full (uncached) constraint evaluations, summed over workers.  Each
    worker publishes its count through an atomic after every candidate,
    so reading this from the calling domain is race-free even while a
    batch is in flight. *)

val cache_hits : t -> int

val cache_misses : t -> int

val check_seconds : t -> float
(** Wall-clock seconds spent inside {!check}/{!check_batch}. *)

val shutdown : t -> unit
(** Join the pool's domains.  The engine must not be used afterwards. *)
