(** Space and power constraints (§7.2).

    Old and new hardware generations often share the same physical space
    and power feed; some transient headroom exists but is limited, so the
    planner must bound how much of both generations can be energized at
    once — independently of ports and utilization.  A power model assigns
    switches to {e domains} (a hall, an MPOE room, a plane's row of racks)
    with a capacity each; a topology state is power-feasible when every
    domain's active draw stays within its capacity. *)

type t = {
  names : string array;  (** Domain names, indexed by domain id. *)
  caps : float array;  (** Capacity per domain (kW). *)
  domain_of : int array;  (** Switch id → domain id, or -1 (unmetered). *)
  draw : float array;  (** Switch id → power draw when active (kW). *)
}

val make :
  n_switches:int ->
  domains:(string * float) list ->
  assign:(int * int * float) list ->
  t
(** [make ~n_switches ~domains ~assign] builds a model; [assign] lists
    (switch id, domain id, draw).  Unassigned switches are unmetered.
    Raises [Invalid_argument] on out-of-range ids, duplicate assignment,
    or non-positive capacity/draw. *)

val load : t -> Topo.t -> float array
(** Active draw per domain in the topology's current state. *)

val ok : t -> Topo.t -> bool
(** [ok p topo] — every domain within capacity (from-scratch; the
    constraint checker tracks this incrementally instead). *)

val hall_model :
  ?v1_draw:float -> ?v2_draw:float -> Gen.scenario -> headroom:float -> t
(** The production-shaped model for a generated scenario:

    - HGRID migrations: one shared hall holds both generations' FADUs and
      FAUUs; V1 switches draw 1.0 kW, the newer V2 0.8 kW; the hall's
      capacity is the V1 total times (1 + headroom).
    - SSW forklifts: one room per (plane) shared by the old and new
      spines, capacity = old total × (1 + headroom).
    - DMAG: the MA room is sized for all MAs (space is not the binding
      constraint for an additive layer).

    [v1_draw]/[v2_draw] are the per-switch draws in kW (defaults 1.0 and
    0.8 — newer hardware is more efficient per box).  [headroom] is the
    fraction of extra transient capacity (e.g. 0.5 = half a generation's
    budget of slack while both are racked). *)
