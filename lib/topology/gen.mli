(** Parametric generators for Meta-style production topologies and the
    three migration types of §2.4.

    The paper evaluates on five production topologies A–E (Table 3,
    40–10,000 switches and 80–100,000 circuits) running three kinds of
    migration: HGRID V1→V2, SSW Forklift, and DMAG.  Production topologies
    are proprietary, so this module builds synthetic regions with the same
    layered structure, the same switch/circuit/action scale, and the same
    constraint dynamics (capacity bands and port pressure), per the
    substitution notes in DESIGN.md.

    A {e scenario} is a migration problem instance: the universe topology
    (original elements active, target elements inactive), the sets of
    elements to drain and onboard, and the layout information that the
    block-organization policy and the demand generator need. *)

type params = {
  label : string;  (** Short name, e.g. ["E"]. *)
  dcs : int;  (** Datacenters (buildings) in the region. *)
  pods : int;  (** Pods per DC; each pod has 4 FSWs. *)
  rsws_per_pod : int;
  planes : int;  (** Spine planes per DC (4 or 8). *)
  ssws_per_plane : int;
  link_mult : int;  (** Parallel circuits on RSW–FSW and FSW–SSW links. *)
  v1_grids : int;  (** HGRID V1 grids in the region. *)
  v1_fadu_per_grid : int;
  v1_fauu_per_grid : int;
  v2_grids : int;  (** HGRID V2 grids (the migration target). *)
  v2_fadu_per_grid : int;
  v2_fauu_per_grid : int;
  ebs : int;
  drs : int;
  ebbs : int;
  mas : int;  (** MA switches introduced by the DMAG migration. *)
  mesh_variants : int;
      (** Coexisting SSW–FADU meshing patterns (Fig. 2(c)): grid [g] is
          wired with variant [g mod mesh_variants].  Grids of different
          variants are not interchangeable, so they form distinct action
          types — the realistic heterogeneity that makes production
          search spaces hard (§2.3). *)
  cap_rsw_fsw : float;  (** Circuit capacities, Tbps. *)
  cap_fsw_ssw : float;
  cap_ssw_fadu_v1 : float;
  cap_ssw_fadu_v2 : float;
  cap_fadu_fauu : float;
  cap_fauu_eb : float;
  cap_fauu_ma : float;
  cap_ma_eb : float;
  cap_eb_dr : float;
  cap_dr_ebb : float;
  cap_fsw_ssw_new : float;  (** Capacity of the forklift's new SSW links. *)
  cap_ssw_fadu_new : float;
  ssw_port_headroom : int;
      (** Spare SSW ports beyond the original degree: bounds how many V2
          grids can be onboarded before V1 grids are drained (Eq. 6). *)
  fsw_port_headroom : int;
      (** Spare FSW ports: the analogous bound for the SSW forklift. *)
}

type layout = {
  params : params;
  rsws_by_dc : int list array;
  fsws_by_dc_plane : int list array array;
  ssws_by_dc_plane : int list array array;
  new_ssws_by_dc_plane : int list array array;
      (** Forklift replacements; empty lists for other scenarios. *)
  fadu_v1_by_grid : int list array;
  fauu_v1_by_grid : int list array;
  fadu_v2_by_grid : int list array;  (** Empty outside HGRID scenarios. *)
  fauu_v2_by_grid : int list array;
  mas : int list;  (** Empty outside DMAG scenarios. *)
  ebs : int list;
  drs : int list;
  ebbs : int list;
  new_ebs : int list;
      (** The OCS scenarios' second EB bank; empty for other kinds. *)
  fauu_eb_circuits_by_eb : int list array;
      (** The FAUU uplink circuits grouped per (old) EB — drained by DMAG,
          rewired by the OCS scenarios. *)
}

type kind = Hgrid_v1_to_v2 | Ssw_forklift | Dmag | Ocs_rewire | Ocs_swap

val kind_to_string : kind -> string

type scenario = {
  name : string;
  kind : kind;
  topo : Topo.t;  (** The universe, in the original network state. *)
  layout : layout;
  drain_switches : int list;  (** Old switches to remove. *)
  undrain_switches : int list;  (** Future switches to onboard. *)
  drain_circuit_groups : (string * int list) list;
      (** Standalone circuit drains (DMAG, OCS swap), grouped as operated
          together. *)
  undrain_circuit_groups : (string * int list) list;
      (** Standalone circuit onboards (the OCS swap's pre-cabled duplicate
          uplinks); empty for other kinds. *)
  rewire_groups : (string * int list * int) list;
      (** [(label, circuits, new_hi)]: uplink bundles the OCS rewire
          retargets onto the new EB bank, one group per old EB.  Empty for
          other kinds. *)
  adds_layer : bool;
      (** [true] when the migration introduces a layer absent from the
          original topology — the case Janus and MRC cannot plan (§6.3). *)
}

val build : kind -> params -> scenario
(** Build a scenario of the given migration kind from [params].
    [Ssw_forklift] replaces the SSWs of DC 0; [Dmag] requires
    [params.mas > 0]. *)

(** {1 The topology family of Table 3} *)

val params_a : unit -> params
val params_b : unit -> params
val params_c : unit -> params
val params_d : unit -> params
val params_e : unit -> params

val params_f : unit -> params
(** The F tier (ROADMAP item 3): a multi-region build one order of
    magnitude past E — ~111k switches, ~991k circuits — under a shallow
    144-state lattice so every planner finishes while each admission
    check pays the full million-circuit evaluation. *)

val params_ocs_lite : unit -> params
(** The OCS shape at A's scale: the CI smoke tier for the `ocs` bench. *)

val params_of_label : string -> (kind * params) option
(** The migration kind and parameters a label stands for — the one label
    table behind {!scenario_of_label} and [klotski gen].  ["A"]–["E"] run
    HGRID V1→V2; ["E-SSW"] and ["E-DMAG"] the other two migration types
    on topology E; ["F"], ["F-SSW"] and ["F-LITE"] the beyond-paper scale
    tiers; ["OCS"]/["OCS-LITE"] the OCS rewire scenarios and
    ["OCS-SWAP"]/["OCS-SWAP-LITE"] their drain/undrain-only counterparts
    (none part of {!all_labels}).  [None] on unknown labels. *)

val scenario_of_label : string -> scenario
(** [build] applied to {!params_of_label}.  Raises [Invalid_argument] on
    unknown labels. *)

val all_labels : string list
(** The seven labels of Table 3, in the paper's order.  Excludes the F
    tiers, which only the `scale` bench and its tests generate. *)

(** {1 Reporting} *)

type stats = {
  orig_switches : int;  (** Active switches in the original topology. *)
  orig_circuits : int;  (** Active circuits in the original topology. *)
  actions : int;
      (** Switch-level operations: drains + onboards (+ one per drained,
          onboarded or rewired circuit group), the "Actions" column of
          Table 3. *)
  capacity_touched : float;  (** Tbps of capacity drained, Table 1. *)
}

val stats : scenario -> stats
