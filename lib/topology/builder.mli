(** Incremental topology construction.

    The generators ({!Gen}) and the NPD converter assemble topologies
    switch by switch; this builder assigns dense ids, checks invariants and
    finally freezes everything into a {!Topo.t} universe.

    A builder is created at its final size: the caller declares how many
    switches and circuits it will add, every column is allocated once at
    that length, and {!freeze} hands the columns to the universe without
    copying them.

    Switches and circuits can be declared {e future} (part of the target
    network only): they are created inactive so the frozen topology starts
    in the original network state. *)

type t
(** A topology under construction. *)

val create : switches:int -> circuits:int -> t
(** [create ~switches ~circuits] is an empty builder for exactly that
    many switches and circuits.  Raises [Invalid_argument] on a negative
    count. *)

val add_switch :
  t ->
  name:string ->
  role:Switch.role ->
  ?generation:int ->
  ?dc:int ->
  ?pod:int ->
  ?plane:int ->
  ?index:int ->
  ?future:bool ->
  max_ports:int ->
  unit ->
  int
(** Declare a switch and return its id.  [future] (default [false]) marks
    a target-only switch that starts inactive.  Names are not checked for
    uniqueness: {!Gen} derives each from a distinct (role, generation, dc,
    pod, plane, index) tuple.  Raises [Invalid_argument] once every
    declared switch is added. *)

val add_circuit : t -> lo:int -> hi:int -> ?future:bool -> capacity:float -> unit -> int
(** Declare a circuit between two existing switches and return its id.
    Endpoints are reordered automatically so that [lo] has the lower
    {!Switch.rank}; equal ranks are rejected, as are unknown switch ids, a
    capacity that is not positive and finite, and a circuit past the
    declared count ([Invalid_argument]).  A circuit is also created
    inactive when either endpoint is future. *)

val connect_all :
  t -> los:int list -> his:int list -> ?future:bool -> capacity:float -> unit -> int list
(** Full bipartite meshing: one circuit for every (lo, hi) pair. *)

val freeze : t -> Topo.t
(** Freeze into a topology whose activity flags encode the original
    network (future elements inactive).  Raises [Invalid_argument] unless
    exactly the declared switches and circuits were added.  The builder
    must not be reused afterwards. *)
