(** The mutable topology overlay: activity state over an immutable
    {!Universe.t}.

    A topology holds the {e universe} of a migration: every switch and
    circuit of both the original and the target networks.  The static
    structure (arrays, adjacency, port budgets) lives in a
    shared {!Universe.t}; this module is the thin mutable {e overlay} on
    top of it — switch/circuit activity bitsets plus the incrementally
    maintained usable set, per-switch usable degrees and the
    port-violation counter.  Switches and circuits that exist in the
    current network state are {e active}; draining deactivates, onboarding
    (undraining) activates.  A circuit is {e usable} only when its own
    flag and both endpoints are active — this is how inter-DC circuits
    become "effectively lost" when the far end is down (§2.2, "consider
    multiple DCs").

    {!copy} duplicates only the overlay words and shares the universe
    physically, so a checker's copy costs O(overlay), not O(topology).
    The overlay maintains, incrementally under toggles, the usable degree
    of every switch and the number of port-constraint violations, so the
    port check of Eq. 6 is O(1) per state.

    {b Wiring ownership.}  The overlay also owns the {e endpoint remap}:
    a sparse table of circuits whose higher-rank endpoint has been
    retargeted by an OCS {!set_circuit_hi} (the [Rewire] action).  The
    universe always reports the as-built wiring; {!endpoint_hi},
    usability, port accounting and reachability on the overlay all
    report the {e current} wiring.  The remap holds only non-identity
    entries, so it copies in O(overlay) like the activity bitsets, and
    costs one bitset probe per query on tasks that never rewire. *)

type t

val of_universe : Universe.t -> switch_future:Bytes.t -> circuit_future:Bytes.t -> t
(** [of_universe u ~switch_future ~circuit_future] is the overlay of the
    original network state, sharing [u]: byte [i] of [switch_future]
    (byte [j] of [circuit_future]) is non-zero for a future switch
    (circuit), which starts inactive; every other element starts active.
    The usable set, usable degrees and port violations are computed in
    the same pass.  Raises [Invalid_argument] unless the flags are as
    long as [u]'s switches and circuits. *)

val universe : t -> Universe.t
(** The shared immutable structure under this overlay. *)

val copy : t -> t
(** Copy the overlay: activity flags and counters become independent of
    the source; the universe stays physically shared. *)

(** {1 Static structure}

    Convenience pass-throughs to the shared {!Universe.t}. *)

val n_switches : t -> int
val n_circuits : t -> int

val switch : t -> int -> Switch.t
(** [switch t i] is the switch with id [i]. *)

val circuit : t -> int -> Circuit.t
(** [circuit t j] is the circuit with id [j]. *)

val switches : t -> Switch.t array
(** A fresh copy of the switch array; mutating it has no effect. *)

val circuits : t -> Circuit.t array
(** Freshly allocated record views of every circuit; mutating the array
    has no effect.  O(n_circuits) allocation — cold paths only. *)

(** {1 Flat structure accessors}

    Allocation-free pass-throughs to the packed {!Universe.t} arrays —
    the hot-path replacements for {!circuit}. *)

val capacity : t -> int -> float
(** [capacity t j] is circuit [j]'s capacity. *)

val endpoint_lo : t -> int -> int
(** [endpoint_lo t j] is the lower-{!Switch.rank} endpoint of [j]. *)

val endpoint_hi : t -> int -> int
(** [endpoint_hi t j] is the higher-rank endpoint of [j] under the
    {e current} wiring: the remap target when [j] is rewired, the
    as-built universe endpoint otherwise. *)

val up_degree : t -> int -> int
(** Number of circuits whose [lo] endpoint is the given switch. *)

val iter_up : t -> int -> f:(int -> unit) -> unit
(** [iter_up t s ~f] applies [f] to each up-circuit id of [s], in
    increasing id order, without allocating. *)

(** {1 Activity} *)

val switch_active : t -> int -> bool
val circuit_active : t -> int -> bool

val usable : t -> int -> bool
(** [usable t c] is [circuit_active t c] and both endpoints active. *)

val set_switch_active : t -> int -> bool -> unit
(** Toggle a switch, updating usable degrees and port-violation counts of
    every incident circuit.  Idempotent.  Costs O(degree) while no
    circuit is rewired, O(degree + |C|/8 + rewired) otherwise. *)

val set_circuit_active : t -> int -> bool -> unit
(** Toggle a circuit.  Idempotent. *)

(** {1 Wiring (OCS rewiring)} *)

val set_circuit_hi : t -> int -> int option -> unit
(** [set_circuit_hi t j (Some h)] atomically retargets circuit [j]'s hi
    endpoint to switch [h] (an OCS flip); [set_circuit_hi t j None]
    restores the as-built wiring.  Usable degrees, the port-violation
    count and the usable set move with the wire in O(1).  [h] should
    share the as-built endpoint's role so the circuit's rank pair stays
    meaningful.  Idempotent. *)

val circuit_rewired : t -> int -> bool
(** Whether circuit [j]'s current hi endpoint differs from the
    as-built wiring. *)

val rewired_count : t -> int
(** Number of currently rewired circuits (O(1)). *)

val usable_wired : t -> int -> int -> bool
(** [usable_wired t j alt] is whether [j] is usable and its current
    wiring matches a routing candidate compiled for alternative endpoint
    [alt] ([alt = -1]: the as-built wiring, any other value the rewired
    endpoint [alt]) — the ECMP predicate for one candidate row.  One
    bitset probe on never-rewired circuits. *)

val sweep_rows :
  t ->
  circuits:Kutil.Col.t ->
  alt_hi:int array ->
  nexts:Kutil.Col.t ->
  prevs:Kutil.Col.t ->
  useful:Kutil.Bitset.t ->
  into:Kutil.Bitset.t ->
  Bytes.t ->
  unit
(** [sweep_rows t ~circuits ~alt_hi ~nexts ~prevs ~useful ~into live] is
    one step of the ECMP backward sweep over a stage's as-built rows, one
    call per stage and no call per row: one fused, unchecked pass
    ({!Kutil.Bitset.sweep_rows}).  Row [i] runs over circuit
    [j = circuits.ids.(i)] from switch [prevs.ids.(j)] to switch
    [nexts.ids.(j)] ([prevs] and [nexts] are the universe's endpoint
    columns for the stage's direction, {!Universe.ends}).  A row stands
    for the as-built wiring when [alt_hi] is empty or [alt_hi.(i)] is
    negative; it is live when [usable_wired t j (-1)] holds and [useful]
    holds its next switch, and a live row adds its previous switch to
    [into].  Byte [i] of [live] is set to ['\001'] for a live row and
    ['\000'] otherwise, and to ['\000'] for every alternative row: the
    caller probes those with {!usable_wired} under their own wiring.
    Raises [Invalid_argument] when [alt_hi] is neither empty nor as long
    as [circuits], when [live] is shorter than the rows, when a column's
    bound exceeds the set it probes ([circuits] the usable set, [nexts]
    [useful], [prevs] [into]) or when an endpoint column is shorter than
    [circuits]' bound. *)

val active_switch_count : t -> int
val active_circuit_count : t -> int

val usable_degree : t -> int -> int
(** [usable_degree t s] is the number of usable circuits incident to [s]
    — the ports in use on [s]. *)

val ports_ok : t -> bool
(** [ports_ok t] is [true] iff no active switch uses more ports than its
    [max_ports] (the port constraints, Eq. 6). *)

val port_violation_count : t -> int
(** Number of active switches currently violating their port constraint. *)

(** {1 Analysis} *)

(** {1 Load scans}

    The {!Universe} load scans ({!Universe.theta_ok} and the rest) over
    this overlay's usable set: a circuit counts when its load is positive
    and it is {!usable}.  One call per scan; no capacity is boxed per
    circuit. *)

val theta_ok : t -> float array -> theta:float -> bool
val min_residual : t -> float array -> theta:float -> float
val hottest : t -> float array -> int array -> float array -> unit
val funneling_ok :
  t -> float array -> int array -> phi:float -> theta:float -> bool

(** {2 Kept θ verdicts}

    {!Universe.theta_count} and {!Universe.theta_rejudge} over this
    overlay's usable set: a caller that keeps a flag byte per circuit
    and the number set re-judges only the circuits it marks, and θ
    holds, exactly as {!theta_ok} says, when the number is zero. *)

val theta_count : t -> float array -> theta:float -> over:Bytes.t -> int

val theta_rejudge :
  t ->
  marks:Bytes.t ->
  loads:float array array ->
  over:Bytes.t array ->
  n_over:int array ->
  theta:float ->
  unit

val circuit_marks : t -> Bytes.t
(** A cleared circuit bitset for {!theta_rejudge} and
    [Ecmp.evaluate_patch]'s [moved]: bit [j land 7] of byte [j lsr 3]
    for circuit [j], in whole 8-byte words. *)

val mark_touched : t -> Bytes.t -> switches:int array -> circuits:int array -> unit
(** [mark_touched t marks ~switches ~circuits] marks every circuit whose
    usability toggling these switches and circuits can flip: each of
    [circuits], each circuit incident to one of [switches] as built, and
    each circuit currently rewired onto one.  Call it after the toggle,
    once per toggle.  O(their degrees), plus a scan of the rewired set
    per switch while some circuit is rewired. *)

val usable_capacity_between : t -> Switch.role -> Switch.role -> float
(** Total capacity (Tbps) of usable circuits whose endpoints have the two
    given roles (in either order). *)

val reachable : t -> from:int list -> Kutil.Bitset.t
(** [reachable t ~from] marks every switch reachable from [from] along
    usable circuits (both directions). *)

