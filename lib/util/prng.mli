(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic piece of the reproduction — demand matrices, traffic
    spikes, jitter in workload generators — draws from this generator so
    that experiments are bit-for-bit reproducible from a seed, independent
    of the OCaml stdlib [Random] state. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] is a generator whose stream is fully determined by
    [seed]. *)

val split : t -> t
(** [split g] derives an independent generator from [g], advancing [g].
    Useful to give each subsystem its own stream. *)

val next_int64 : t -> int64
(** Next raw 64-bit output of the SplitMix64 sequence. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val uniform : t -> lo:float -> hi:float -> float
(** [uniform g ~lo ~hi] is uniform in [\[lo, hi)]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** [gaussian g ~mu ~sigma] samples a normal distribution via Box–Muller. *)

val exponential : t -> rate:float -> float
(** [exponential g ~rate] samples an exponential distribution. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle driven by [g]. *)

val pick : t -> 'a array -> 'a
(** [pick g a] is a uniformly random element of the non-empty array [a]. *)
