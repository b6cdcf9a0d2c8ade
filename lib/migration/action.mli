(** Actions and action types (§3).

    A migration is a sequence of actions operated on switches and
    circuits.  Every action has an {e action type}, decided by the switch
    type R{_s} and the operation (drain, undrain, or rewire): draining an
    SSW is a different type from draining a FADU or undraining an SSW.
    Consecutive actions of the same type are operated in parallel by the
    on-site crew, so the operational cost counts action-type changes
    (Eq. 1).

    The alphabet is extensible: beyond the paper's drain/undrain, an OCS
    {!Rewire} retargets a circuit's higher-rank endpoint to a different
    switch of the same role through an optical circuit switch (ROADMAP
    item 4, FastReChain-style reconfiguration).  Consumers never match on
    {!op} directly — they ask the effect interface ({!applies},
    {!inverse}, {!affects_wiring}, {!initial_active}, {!funnels}) so a
    fourth operation later is a change local to this module.

    When the organization policy merges symmetry blocks of several roles
    into one operation block (e.g. a whole HGRID grid, FADUs and FAUUs
    together — Fig. 5), the block's action type names that merged layer. *)

type op =
  | Drain
  | Undrain
  | Rewire of { circuit_sel : string; new_hi : int }
      (** Atomically retarget the [hi] endpoint of the selected circuits
          to switch [new_hi] (an OCS flip).  [circuit_sel] names the
          circuit group, mirroring {!Circuit_group}; [new_hi] must share
          the role (hence {!Switch.rank}) of the as-built endpoint so the
          circuit's layer pair is preserved. *)

val op_to_string : op -> string
(** ["drain"], ["undrain"], ["rewire(<sel>-><hi>)"]. *)

val of_string : string -> op option
(** Round-trip inverse of {!op_to_string}:
    [of_string (op_to_string op) = Some op] for the whole alphabet.
    Returns [None] on anything else. *)

(** What applying (or rolling back) an action does to each element of a
    block: toggle activity, or retarget wiring ([Some hi] = rewired to
    [hi], [None] = as-built). *)
type effect = Set_activity of bool | Set_wiring of int option

type target =
  | Switch_layer of Switch.role * int
      (** A (role, generation) switch group, e.g. [Switch_layer (FADU, 1)]. *)
  | Hgrid_layer of int * int
      (** A whole HGRID generation (FADU + FAUU merged, Fig. 5), qualified
          by its meshing-pattern variant: grids wired with different
          meshing patterns coexist in production (Fig. 2(c)) and cannot be
          operated as one type. *)
  | Circuit_group of string
      (** Standalone circuits named by what they connect, e.g.
          ["FAUU-EB"] for the DMAG drains. *)

type t = { op : op; target : target }
(** An action type. *)

val make : op -> target -> t

(** {1 The effect interface}

    The exhaustive dispatch over the alphabet lives here; every layer
    that used to pattern-match on [Drain | Undrain] asks these
    questions instead. *)

val applies : t -> effect
(** The effect of applying the action to a block's elements. *)

val inverse : t -> effect
(** The effect of rolling the action back (the planner retreating across
    the compact lattice). *)

val affects_wiring : t -> bool
(** [true] iff applying the action changes circuit endpoints rather than
    activity — planners without wiring semantics (MRC, Janus) must
    refuse tasks containing such actions. *)

val initial_active : t -> bool
(** Whether the block's elements are active in the original topology:
    drains and rewires operate on live elements, undrains on future
    ones. *)

val funnels : t -> bool
(** Whether the action participates in the funneling constraint (φ,
    Eq. 7).  Only drains remove capacity mid-operation; a rewire is an
    atomic OCS flip with no transient. *)

val rewire_target : t -> int option
(** [Some new_hi] for rewire actions, [None] otherwise. *)

val to_string : t -> string
(** e.g. ["drain HGRID-v1"], ["undrain SSW-g2"], ["drain circuits FAUU-EB"],
    ["rewire(EB0->412) circuits FAUU-EB0"]. *)

module Set : sig
  type action = t
  type t

  val of_list : action list -> t
  (** Deduplicated, order-preserving index of the action types of a task.
      A task has few action types (2–6); planners refer to them by index. *)

  val cardinal : t -> int
  val get : t -> int -> action
  val index : t -> action -> int
  (** Raises [Not_found] when absent. *)
end
