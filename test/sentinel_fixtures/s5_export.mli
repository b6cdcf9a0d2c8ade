(* S5 fixture: an interface whose exports are referenced by another
   unit, by this unit only, and by nothing. *)

val used : int -> int
(** [S5_user] calls it: not reported. *)

val own_only : int -> int
(** Only [used] calls it: reported, drop it from the interface. *)

val dead : int -> int
(** Nothing calls it: reported, delete it. *)

module Nested : sig
  val nested_dead : unit -> unit
  (** A nested module's values are exports too: reported. *)
end
