(** A migration task: the full problem instance the planners consume.

    Bundles the universe topology, the operation blocks in canonical
    per-type order, the compiled and calibrated traffic demands, and the
    constraint parameters (utilization bound θ, cost parameter α,
    funneling margin).  Tasks are immutable; the constraint checker makes
    its own topology copy. *)

type t = {
  name : string;
  topo : Topo.t;  (** Universe in the original state.  Not mutated. *)
  blocks : Blocks.t array;  (** Indexed by block id. *)
  actions : Action.Set.t;  (** The task's action types. *)
  blocks_by_type : int array array;
      (** [blocks_by_type.(a)] lists block ids of type [a] in the canonical
          order Algorithm 2's [GetBlock] consumes them. *)
  counts : int array;  (** Blocks per type: the target vector V*. *)
  demands : Demand.t list;  (** Calibrated demand classes. *)
  compiled : (Ecmp.compiled * float) array;
      (** Per class: compiled route and volume scale factor. *)
  theta : float;  (** Utilization bound θ of Eq. 5 (default 0.75). *)
  alpha : float;  (** Cost parameter α of §5 (default 0). *)
  funneling : float;
      (** Transient funneling margin φ (§7.2): circuits adjacent to the
          block just drained must satisfy load·(1+φ) ≤ θ·W.  0 disables. *)
  routing : [ `Ecmp | `Weighted ];
      (** Hashing policy used by the satisfiability checks: plain ECMP, or
          the capacity-weighted temporary routing configurations operators
          deploy when switch generations of different capacity coexist
          (§7.1). *)
  type_weights : float array option;
      (** OPEX cost model (§7.2): per-action-type labor weight, indexed
          like {!actions}.  [None] = all 1 (the paper's cost). *)
  power : Power.t option;
      (** Space & power constraints (§7.2): when present, every
          intermediate state must keep each power domain within its
          capacity.  [None] disables. *)
  adds_layer : bool;  (** Propagated from the scenario (DMAG). *)
  ensemble : Ensemble.t option;
      (** Robust admission (§7.1 drift): when present with k > 1, the
          satisfiability checker evaluates every matrix of the ensemble
          against one shared ECMP traversal and admits a state only when
          it is safe under at least ⌈q·k⌉ matrices.  [None] (and any
          k = 1 ensemble) is the historical single-matrix check,
          bit-identical. *)
  deps : (int * int) array array;
      (** Block→demand dependency index, computed at creation: [deps.(b)]
          lists every [(class, stage mask)] whose compiled stage candidates
          (or their endpoints) intersect block [b]'s switches or circuits —
          the only classes whose routing can change when [b] toggles, and
          the only stages (bit [k] = stage [k]) where the change can
          enter.  The incremental satisfiability checker drives its delta
          evaluation off this. *)
  groups : Ecmp.groups option array;
      (** Per class, its rows grouped by previous and next switch
          ({!Ecmp.group_rows}): [Some] exactly for the classes the delta
          layer patches — every class a dependency row names, when
          {!delta_profitable} holds — and [None] for the rest.  Built
          with [deps], carried into remainder tasks with them
          ({!with_blocks}), and shared by every checker of the task. *)
  state_word_count : int;
      (** Words of the packed applied-block representation: blocks are
          lowered to one bit each (bit [b mod 63] of word [b / 63]). *)
  block_prefix : int array array array;
      (** [block_prefix.(a).(k)]: packed applied-block mask of the first
          [k] blocks of type [a] in canonical order — the lowering of a
          compact count to the block set it denotes.  Computed once at
          task build time. *)
}

val of_scenario :
  ?theta:float ->
  ?alpha:float ->
  ?funneling:float ->
  ?routing:[ `Ecmp | `Weighted ] ->
  ?type_weights:float array ->
  ?power:Power.t ->
  ?target_util:float ->
  ?seed:int ->
  ?block_factor:float ->
  ?blocks:Blocks.t list ->
  ?demands:Demand.t list ->
  Gen.scenario ->
  t
(** Build a task from a generated scenario.  Demands default to
    {!Matrix.generate} with the given [seed] (default 42), calibrated so
    the hottest original circuit runs at [target_util] (default 0.45).
    [blocks] overrides the organization policy (which otherwise runs at
    [block_factor], default 1.0). *)

val with_params :
  ?theta:float ->
  ?alpha:float ->
  ?funneling:float ->
  ?routing:[ `Ecmp | `Weighted ] ->
  ?type_weights:float array ->
  ?power:Power.t ->
  t ->
  t
(** Vary the constraint/cost/routing parameters of an existing task (used
    by the θ and α sweeps of Figures 12–13) without regenerating
    demands. *)

val with_ensemble : Ensemble.t option -> t -> t
(** Attach (or clear) a demand ensemble.  The factor matrix applies to
    the task's current calibrated volumes; its class count must match.
    Carried through remainder tasks and demand rescaling unchanged. *)

val scale_demands : t -> float array -> t
(** Multiply every class's current volume by a factor — the natural form
    for demand forecasts (§7.1): a factor of 1.0 keeps the class as
    calibrated, 1.1 grows it by 10%. *)

val with_blocks : t -> Blocks.t array -> deps:(int * int) array array -> t
(** [with_blocks t blocks ~deps] is [t] with [blocks] (block [i] has id
    [i]) grouped by action type in their given order and lowered again
    ([state_word_count]/[block_prefix]), and [deps.(i)] as block [i]'s
    dependency row.  A block's row depends only on its own switches and
    circuits and on [t]'s compiled classes, so a remainder task passes
    each kept block's row from its parent ([Klotski.remainder_task]) and
    builds no index.  [groups] is decided again for the new blocks; a
    class [t] already groups keeps its grouping, which depends on the
    class alone, and only a class the delta layer newly patches is
    grouped. *)

val relower : t -> t
(** [with_blocks t t.blocks] with every dependency row and row grouping
    rebuilt from the compiled classes: the indexes, derived afresh. *)

val delta_profitable : t -> bool
(** Whether the delta layer pays on this task, from a candidate-count
    cost model: a full evaluation visits every stage candidate of every
    class; one block's patch is charged, per class its dependency row
    names, the candidates from the lowest stage it dirties on; the delta
    layer is used when the mean over blocks is below half a full
    evaluation (and a full evaluation visits at least 1024 candidates).
    The model predates the sparse patch ({!Ecmp.evaluate_patch}), which
    re-judges only the rows the toggles reach and re-splits only the
    switches they moved, so it overstates a patch's cost; it stays the
    rule, keeping the HGRID tiers (one-block ratios 0.76–0.92, against
    0.33–0.44 on the SSW-forklift and DMAG migrations) on the full
    path. *)

val universe : t -> Universe.t
(** The immutable structure shared by every checker of this task. *)

val state_words : t -> Compact.t -> int array
(** [state_words t v] packs the applied-block set that the compact state
    [v] denotes into [t.state_word_count] words — the overlay words the
    satisfiability cache hashes.  The mapping is injective: distinct
    compact states denote distinct block sets. *)

val blit_state_words : t -> Compact.t -> into:int array -> unit
(** Allocation-free {!state_words}: writes words
    [0 .. t.state_word_count - 1] of [into] (which may be longer). *)

val total_blocks : t -> int
(** |L|: the number of block-level actions to perform. *)

val block_type : t -> int -> int
(** [block_type t b] is the action-type index of block [b]. *)

val affects_wiring : t -> bool
(** Whether any block of the task changes circuit wiring (an OCS
    [Rewire] action type) — the tasks whose plans the residual-capacity
    and symmetry-projection planners cannot represent, analogous to
    [adds_layer] for DMAG. *)

val pp_summary : Format.formatter -> t -> unit
