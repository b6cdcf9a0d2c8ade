(** Switches of a Meta-style datacenter network.

    §2.1 of the paper describes the switch roles bottom-up: rack switches
    (RSW), fabric switches (FSW) and spine switches (SSW) inside a Fabric;
    the disaggregated HGRID fabric-aggregation layer made of downlink
    (FADU) and uplink (FAUU) sub-switch groups; the DMAG metro aggregation
    (MA); and the datacenter/backbone boundary (EB, DR, EBB). *)

type role =
  | RSW  (** Rack switch: top-of-rack, bottom of the fabric. *)
  | FSW  (** Fabric switch: interconnects the RSWs of a pod. *)
  | SSW  (** Spine switch: interconnects FSWs along a plane. *)
  | FADU (** Fabric Aggregate Downlink Unit: HGRID sub-switches facing the fabrics. *)
  | FAUU (** Fabric Aggregate Uplink Unit: HGRID sub-switches facing upward. *)
  | MA   (** Metro Aggregation (DMAG): interconnects regions in proximity. *)
  | EB   (** Edge/Border router on the backbone side. *)
  | DR   (** Datacenter Router at the DC/backbone boundary. *)
  | EBB  (** Express Backbone router at the WAN core. *)

val all_roles : role list
(** Every constructor of {!role}, bottom-up. *)

val role_to_string : role -> string
(** Canonical upper-case name, e.g. ["FADU"]. *)

val role_of_string : string -> role option
(** Inverse of {!role_to_string} (case-insensitive). *)

val rank : role -> int
(** Layer rank used to orient circuits: RSW = 0 rising to EBB = 8.  A
    circuit always connects two switches of different rank, and traffic
    "up" means toward higher rank. *)

type t = {
  id : int;  (** Dense index into the topology's switch array. *)
  name : string;  (** Human-readable name, e.g. ["dc1/pod3/fsw2"]. *)
  role : role;
  generation : int;  (** Hardware generation (1 = old, 2 = new). *)
  dc : int;  (** Datacenter index within the region; -1 for regional gear. *)
  pod : int;  (** Pod index for RSW/FSW; -1 otherwise. *)
  plane : int;  (** Spine plane (SSW/FSW) or HGRID grid (FADU/FAUU); -1 otherwise. *)
  index : int;  (** Position within its (role, dc, plane/pod) group. *)
  max_ports : int;  (** Port constraint P{_s} of Eq. 6. *)
}
(** An immutable switch description.  Activity (drained or not) is tracked
    by the topology, not here. *)

val make :
  id:int ->
  name:string ->
  role:role ->
  ?generation:int ->
  ?dc:int ->
  ?pod:int ->
  ?plane:int ->
  ?index:int ->
  max_ports:int ->
  unit ->
  t
(** Constructor with the optional position fields defaulting to [-1]
    (resp. [1] for [generation], [0] for [index]). *)
