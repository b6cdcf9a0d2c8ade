(** A fixed pool of worker domains (OCaml 5 multicore) with a
    deterministic batch-map interface.

    The calling domain participates as worker 0: a pool created with
    [~jobs:1] spawns no domains at all and {!map} is a plain [Array.map],
    so sequential callers pay nothing.  With [jobs > 1], every batch of
    two or more items is dispatched to the workers; [jobs - 1] domains
    are spawned on the first such batch and then reused across batches.
    The pool spawns what it is asked for, whatever the core count: a
    caller that wants no more workers than cores caps [jobs] itself, as
    the satisfiability engine does. *)

type t

val create : jobs:int -> t
(** [create ~jobs] builds a pool of [jobs] workers ([jobs - 1] lazily
    spawned domains plus the caller).  Raises [Invalid_argument] when
    [jobs < 1]. *)

val size : t -> int
(** Total workers, including the caller. *)

val map : t -> worker:(int -> 'a -> 'b) -> 'a array -> 'b array
(** [map pool ~worker items] evaluates [worker wid items.(i)] for every
    [i], with [wid] the index (0 to [size - 1]) of the worker that claimed
    the item, and returns the results in item order.  Items are claimed
    dynamically in short contiguous chunks, so the schedule balances
    uneven work; the result order is deterministic regardless.  [worker]
    must only touch shared state that is safe for the worker id it is
    given (e.g. per-worker scratch indexed by [wid]).  Empty and
    single-item batches run on the caller.

    If any item raises, one such exception is re-raised in the caller
    after the whole batch settles; the pool remains usable.  Calling
    [map] on a shut-down pool raises [Invalid_argument] on every path,
    including the trivial inline ones. *)

val shutdown : t -> unit
(** Stop and join the spawned domains.  Idempotent; any later {!map}
    raises [Invalid_argument]. *)

val recommended_jobs : unit -> int
(** The runtime's recommended domain count for this machine. *)
