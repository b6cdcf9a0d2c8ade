(** Operation blocks and the organization policy (§4.1, §5).

    Symmetry alone barely prunes Meta-scale migrations (symmetry blocks
    hold at most two switches), so Klotski merges symmetry blocks that are
    {e local} to each other — switches the crew can operate together with
    negligible extra cost — into operation blocks:

    - HGRID migrations: one grid (its FADUs and FAUUs together) is one
      operation block (Fig. 5);
    - SSW forklifts: the SSWs of a plane are split into fixed-size
      segments, one block each;
    - DMAG: the FAUU–EB circuits are grouped by EB (releasing the most
      ports per action) and the MAs into index groups.

    The [factor] knob reproduces Fig. 11: it multiplies the number of
    blocks (0.25× = four times coarser, 4× = four times finer). *)

type t = {
  id : int;  (** Dense index within the task's block array. *)
  label : string;  (** Human-readable, e.g. ["drain hgrid-v1/grid3"]. *)
  action : Action.t;
  switches : int array;  (** Switch ids toggled by this block. *)
  circuits : int array;  (** Standalone circuit ids toggled (DMAG drains). *)
}

val organize : ?factor:float -> Gen.scenario -> t list
(** The production organization policy at block-count [factor] (default
    1.0).  Blocks are returned in canonical per-type order — the order in
    which the planners consume them (Algorithm 2's [GetBlock]).  A
    factor past a group's size splits it into single members, and one
    below the inverse of the group count merges every group, without
    work or memory that grows with the factor itself.  Raises
    [Invalid_argument] when [factor] is not positive (NaN included). *)

val symmetry_granularity : Gen.scenario -> t list
(** The "Klotski w/o OB" ablation (§6.4): one block per symmetry block,
    with per-role action types — no locality merging. *)

val validate : Topo.t -> t list -> (unit, string) result
(** Checks that blocks partition the scenario's operated elements: every
    switch/circuit in exactly one block, drains active in the original
    state, undrains inactive. *)
