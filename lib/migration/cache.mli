(** Efficient satisfiability checking (ESC, §4.2): the cache table T{_c}.

    Equivalent states — same compact vector — have the same topology and
    hence the same satisfiability, so each vector is checked at most once.
    The table maps compact vectors to check results exactly as the paper's
    unordered map maps (V, 0/1); concretely each vector is lowered to the
    packed applied-block overlay words it denotes ({!Task.state_words})
    and those words are hashed directly — an injective lowering, so the
    hit/miss behavior matches keying on the vectors themselves.  The
    funneling margin makes results additionally depend on the last
    operated block; when (and only when) a task enables funneling, the
    cache key is extended with the last action type, which identifies the
    last block given V.

    One table belongs to one search, which checks its candidates one
    at a time; it takes no lock. *)

type t

val create : ?enabled:bool -> Task.t -> t
(** [create task] builds a cache bound to one task.  [~enabled:false]
    reproduces the "Klotski w/o ESC" ablation: every check bypasses the
    table and re-runs the full evaluation (counted by {!bypassed}, not
    {!misses}). *)

val check :
  t -> Constraint.t -> ?last_type:int -> ?last_block:int -> Compact.t -> bool
(** Cached satisfiability of state [v].  [last_type]/[last_block] describe
    the most recent action (for funneling-aware tasks). *)

val hits : t -> int
(** Lookups answered from the table. *)

val misses : t -> int
(** Enabled-path lookups that ran a full check.  Always 0 when the cache
    is disabled: [hits / (hits + misses)] stays a meaningful hit rate. *)

val bypassed : t -> int
(** Checks that skipped the table because the cache is disabled. *)

val size : t -> int
(** Distinct states stored. *)
