(** Incremental topology construction.

    The generators ({!Gen}) and the NPD converter assemble topologies
    switch by switch; this builder assigns dense ids, checks invariants and
    finally freezes everything into a {!Topo.t} universe.

    Switches and circuits can be declared {e future} (part of the target
    network only): they are created inactive so the frozen topology starts
    in the original network state. *)

type t
(** A topology under construction. *)

val create : unit -> t
(** A fresh empty builder. *)

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
    a target-only switch that starts inactive.  Raises [Invalid_argument]
    on duplicate names. *)

val add_circuit : t -> lo:int -> hi:int -> ?future:bool -> capacity:float -> unit -> int
(** Declare a circuit between two existing switches and return its id.
    Endpoints are reordered automatically so that [lo] has the lower
    {!Switch.rank}; equal ranks are rejected.  A circuit is also created
    inactive when either endpoint is future. *)

val connect_all :
  t -> los:int list -> his:int list -> ?future:bool -> capacity:float -> unit -> int list
(** Full bipartite meshing: one circuit for every (lo, hi) pair. *)

val freeze : t -> Topo.t
(** Freeze into a topology whose activity flags encode the original
    network (future elements inactive).  The builder must not be reused
    afterwards. *)
