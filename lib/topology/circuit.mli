(** Circuits: the physical links between switches.

    A circuit connects two switches of different layer rank and has a
    capacity W{_c} in Tbps (the unit used throughout the paper's
    evaluation).  Circuits are stored oriented from the lower-rank endpoint
    [lo] to the higher-rank endpoint [hi]; "up" traffic flows lo→hi. *)

type t = {
  id : int;  (** Dense index into the topology's circuit array. *)
  lo : int;  (** Switch id of the lower-rank endpoint. *)
  hi : int;  (** Switch id of the higher-rank endpoint. *)
  capacity : float;  (** Capacity W{_c} in Tbps. *)
}

val make : id:int -> lo:int -> hi:int -> capacity:float -> t
(** Plain constructor; capacity must be positive. *)

val other_end : t -> int -> int
(** [other_end c s] is the endpoint of [c] that is not [s].  Raises
    [Invalid_argument] if [s] is not an endpoint of [c]. *)

