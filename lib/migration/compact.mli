(** The ordering-agnostic compact topology representation (§4.2).

    States reached by different orderings of the same multiset of actions
    have the same intermediate topology, hence the same constraint
    satisfiability.  Klotski therefore represents a state by the vector
    V = (v{_i}) counting finished actions per action type — blocks within
    a type are consumed in one canonical order — and caches satisfiability
    per vector.  The vector value itself is {!Kutil.Vec_key}; this module
    adds the planner-facing operations. *)

type t = Kutil.Vec_key.t
(** [v.(i)] = finished blocks of action type [i]. *)

val origin : Action.Set.t -> t
(** The all-zero vector: the original topology. *)

val succ : t -> int -> t
(** [succ v i] is a fresh vector with one more finished action of type
    [i]. *)

val pred : t -> int -> t
(** [pred v i] is a fresh vector with one less; raises [Invalid_argument]
    when [v.(i) = 0]. *)

val is_target : t -> counts:int array -> bool
(** [is_target v ~counts] holds when every type is fully operated. *)

val finished : t -> int
(** Total finished actions (the secondary A* priority, §4.4). *)

val state_space_size : counts:int array -> float
(** Π (counts.(i) + 1): the size of the compact lattice, as a float since
    it overflows for ablation granularities. *)
