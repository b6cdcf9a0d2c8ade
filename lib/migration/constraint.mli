(** The satisfiability checker: demand constraints (Eq. 4–5) and port
    constraints (Eq. 6) on intermediate topologies.

    One checker owns a private topology {e overlay} — activity bitsets,
    usable degrees, counters — while the immutable {!Universe.t} stays
    physically shared with the task and every other checker.  Creation
    allocates only those overlay words (plus the tiny compact-state
    arrays); the demand-evaluation state (per-circuit loads, ECMP
    scratch, incremental layer) is allocated lazily on the first
    evaluation.  The checker moves between compact states by toggling
    operation blocks — a move lowers the target state to packed
    applied-block words ({!Task.blit_state_words}), compares them with
    the current words and toggles exactly the symmetric difference — and
    a full check is Θ(|S| + |C|) as in Theorems 1–2:

    - port constraints are maintained incrementally by {!Topo} (O(1));
    - space & power constraints (§7.2), when the task carries a
      {!Power.t} model, are likewise maintained incrementally (O(1));
    - demand constraints run every compiled ECMP class over the usable
      circuits and verify no volume is stuck and every circuit's
      utilization stays within θ — by default {e incrementally}: each
      toggled block marks the classes and stages its row of the task's
      block→demand dependency index ({!Task.t.deps}) names as dirty, and
      the next evaluation delta-evaluates only the dirty classes
      ({!Ecmp.evaluate_patch}), re-judging only the rows the toggled
      switches and circuits reach and re-splitting only the switches a
      toggle moved, over the rows the task groups once per class
      ({!Task.t.groups}).  θ is kept rather than scanned: each load
      vector keeps an over-θ bit per circuit and their count, and every
      evaluation re-judges the circuits a patch wrote and those the
      toggled blocks own or touch ({!Topo.theta_rejudge}); a rebuild
      counts every circuit.  Verdicts are identical to the full
      evaluation: unaffected classes provably contribute the same
      loads, a patched class's records are bit-equal to a rebuild's,
      the kept count equals a scan's, and a full rebuild every 512
      patches bounds the rounding drift of the patched loads far below
      the 1e-9 verdict slack.  With the delta layer off, θ is one
      early-exit scan per load vector;
    - optionally, the transient traffic-funneling margin of §7.2 tightens
      the bound to load·(1 + φ) ≤ θ·W on the circuits that absorb the
      traffic of the block just drained.

    When the task carries a demand {!Ensemble.t} with k > 1 matrices,
    the demand constraints become the robust admission predicate: one
    shared ECMP traversal fills a load vector per matrix (flow is linear
    in class volume, so each extra matrix costs a fused multiply-add per
    deposited share, not a full check), each matrix's stuck volume, θ
    bound and funneling margin are judged independently, and the state
    is admitted when at least ⌈q·k⌉ matrices are safe.  The incremental
    layer patches all matrices from the same dirty-stage analysis, and
    each matrix's load vector keeps its own over-θ bits and count.  A task
    without an ensemble — or with k = 1 — runs the historical
    single-matrix code bit-identically. *)

type t

val create : ?incremental:bool -> Task.t -> t
(** A fresh checker for [task].  Only the task topology's overlay words
    are copied — no switch, circuit or adjacency array is duplicated —
    so several checkers never interfere yet share the universe
    physically.  [incremental] (default [true]) enables the delta demand
    evaluation.  Even when enabled, the delta layer is only instantiated
    for tasks where the cost model ({!Task.delta_profitable}) says it
    pays; elsewhere the checker silently uses the plain full evaluation,
    the very code a [~incremental:false] checker runs. *)

val incremental_active : t -> bool
(** Whether delta demand evaluation was requested for this checker (its
    [incremental] flag).  The checker may still evaluate fully when the
    cost model rules the delta layer out for the task — that choice is
    internal. *)

val move_to : t -> Compact.t -> unit
(** Reconfigure the private topology to the given compact state. *)

(** The admission verdict on a state: admitted, or the first constraint
    it breaks, tested in this order. *)
type verdict =
  | Admitted
  | Ports  (** a switch uses more ports than it has (Eq. 6) *)
  | Power  (** a power domain draws over its capacity (§7.2) *)
  | Stuck  (** some demand volume has no usable path (Eq. 4) *)
  | Theta  (** a circuit's utilization exceeds θ (Eq. 5) *)
  | Funneling
      (** a circuit absorbing the last drained block's traffic exceeds θ
          under the funneling margin (§7.2) *)
  | Quantile
      (** fewer than ⌈q·k⌉ of the ensemble's matrices are safe, each
          judged on stuck volume, θ and funneling *)

val verdict_name : verdict -> string
(** ["admitted"], ["port bound"], ["power"], ["stuck volume"],
    ["theta"], ["funneling"] or ["ensemble quantile"]. *)

val verdict : ?last_block:int -> t -> verdict
(** The verdict on the checker's current state: the one admission
    decision, which {!check}, {!current_ok} and {!current_min_residual}
    project.  [last_block] identifies the most recently operated block
    for the funneling margin; it only matters when the task's
    [funneling] is positive and the block is a drain.  Does not count
    as a check. *)

val check : ?last_block:int -> t -> Compact.t -> bool
(** [check ?last_block ck v] moves to state [v] and is [true] iff its
    {!verdict} admits it.  Counts as a check. *)

val checks_performed : t -> int
(** Number of full (uncached) satisfiability checks run so far. *)

val theta_kept : t -> (float array * int) array
(** Per load vector the delta layer keeps θ for — the base loads, then
    each extra ensemble matrix's — a copy of its loads as of the last
    evaluation and its count of circuits over θ; empty when the delta
    layer is off or nothing was evaluated yet.  A diagnostic: the count
    must equal what {!Topo.theta_count} finds on the copy. *)

type summary = {
  max_util : float;  (** Hottest usable circuit's load/capacity. *)
  stuck : float;  (** Undeliverable volume (Tbps); > 0 breaks Eq. 4. *)
  port_violations : int;  (** Switches over their port budget. *)
  hottest : (int * float) list;
      (** The five most utilized circuits, (circuit id, utilization). *)
}

val evaluate_current : t -> summary
(** Diagnostic evaluation of the checker's current state (used by the
    examples and the CLI's [check] command). *)

val overlay : t -> Topo.t
(** The checker's private topology overlay, for diagnostics and tests.
    Do not toggle it directly — go through {!move_to} or the raw block
    operations, which keep the compact-state tracking in sync. *)

val related_circuits : t -> int -> int array
(** The circuits that absorb a drained block's traffic — every universe
    circuit incident to a neighbor of block [b], excluding circuits
    incident to the block itself.  Sorted by circuit id, computed once per
    block and cached.  This is the neighborhood the funneling margin
    checks. *)

(** {1 Raw block operations}

    Baselines without the compact representation (MRC, plan replay)
    operate blocks in arbitrary order.  Raw operations bypass the compact
    state tracking: after using them, {!move_to} and {!check} must not be
    called on the same checker. *)

val apply_block : t -> int -> unit
(** Perform block [b] on the current topology. *)

val unapply_block : t -> int -> unit
(** Revert block [b]. *)

val current_ok : ?last_block:int -> t -> bool
(** Whether the {!verdict} admits the current topology, whatever state
    it is in.  Counts as a check. *)

val current_min_residual : ?last_block:int -> t -> float
(** The MRC objective [37], the {!verdict}'s margin: the minimum over
    loaded usable circuits of (θ·W − load)/W, i.e. the worst remaining
    headroom fraction, and [neg_infinity] exactly when the verdict
    rejects the state.  Under an ensemble it reads the [⌈q·k⌉]-th best
    matrix's margin.  Counts as a check unless the ports or the power
    fail. *)

val check_plan :
  Task.t -> int list -> (float, string) result
(** Replay a block sequence from the original state on a fresh checker,
    verifying availability (each block exactly once), every prefix's
    constraints, and returning the plan cost.  An unsafe prefix's error
    ends with the {!verdict_name} of the constraint it breaks.  Used by
    [Plan.validate]. *)
