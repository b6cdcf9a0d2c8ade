(** Macro-scale ECMP flow evaluation.

    Following the paper (§5, "we focus on macro-scale network behavior …
    we use the equal-cost multi-path (ECMP) routing policy"), a demand's
    volume is pushed through the layered topology stage by stage: at every
    switch the volume splits equally over the usable circuits that lead to
    a next-stage switch from which the destination is still reachable.
    Per-circuit loads accumulate across demands; the satisfiability checker
    then compares them against θ·W{_c} (Eq. 5) and treats any stuck volume
    as a violated path-existence constraint (Eq. 4).

    A route is first {e compiled} against the universe topology — folding
    the per-hop switch filters into per-stage candidate circuit lists — so
    that each evaluation touches only the circuits a demand can ever use.
    This is what keeps one full satisfiability check at the Θ(|S|+|C|) the
    paper states (Theorems 1–2). *)

type hop = {
  dir : [ `Up | `Down ];  (** Circuit orientation followed at this hop. *)
  accept : Switch.t -> bool;
      (** Which next switches qualify.  Must be pure: {!compile} asks it
          at most once per switch. *)
  skip : Switch.t -> bool;
      (** Switches already past this hop: they carry their volume to the
          next stage unchanged (used when a layer such as MA is optional
          on the path).  Must be pure, as [accept]. *)
}

val hop : ?skip:(Switch.t -> bool) -> [ `Up | `Down ] -> (Switch.t -> bool) -> hop
(** [hop dir accept] with [skip] defaulting to never. *)

type compiled
(** A demand class compiled against a universe topology. *)

val compile :
  ?alts:(int * int) list ->
  Universe.t ->
  sources:(int * float) list ->
  hops:hop list ->
  compiled
(** [compile u ~sources ~hops] precomputes, for every hop, the circuits
    that volume starting at [sources] can possibly traverse, assuming every
    element of the universe could be active.  Compilation reads only the
    static structure, so it takes the shared {!Universe.t} directly.
    [sources] pairs switch ids with injected volume (Tbps).

    [?alts] lists [(circuit, alt_hi)] wiring alternatives (OCS rewire
    targets): each such circuit compiles an extra candidate row per
    alternative endpoint, and evaluation admits a row only when the
    overlay's current wiring matches it ({!Topo.usable_wired}) — so a
    rewired circuit routes through its new endpoint with no
    recompilation.  Duplicate pairs are ignored; with [alts = []]
    (default) the compilation is exactly the historical one.  A stage
    none of whose rows is an alternative stores no per-row wiring
    column at all (see {!evaluate}).

    Each hop is one {!Universe.walk_hop} call, which makes no call per
    row across a module boundary: it walks the CSR adjacency of the
    switches the previous hop reached, asks [hop.accept] at most once
    per switch and hop (so [accept] must be pure) and counts the rows,
    then fills columns allocated once at their final length in one pass
    over a circuit-id bitset, so rows come out in increasing circuit id
    (per circuit: the as-built row, then its alternatives in [alts]
    order).  A circuit without alternatives costs no lookup.  Each hop
    costs O(frontier degree + |alts|) plus one scan of at most |C|/8
    bytes and O(|S|/8) to move the frontier.  A row holds only its
    circuit: its previous and next switch are the universe's endpoints
    at that circuit ({!Universe.ends}, picked once per stage by the
    hop's direction), except that an alternative row's hi end is its
    alternative endpoint.  So a class allocates one word per row, two on
    a stage with alternative rows, plus O(|S|/8 + |C|/8) words of marks.

    Every id a stage holds is checked against [u] once, here, and the
    class records [u]'s switch and circuit counts; with the endpoint
    columns {!Universe.create_packed} proved, that is what lets
    evaluation index without a range check per row.  Raises
    [Invalid_argument] when a source with positive volume is not a
    switch of [u]. *)

type rows = Universe.rows = {
  dir : [ `Up | `Down ];
      (** The stage's direction: a row runs from its circuit's lo
          endpoint to its hi one going [`Up], from hi to lo going
          [`Down]. *)
  circuits : int array;  (** Row [i]'s circuit. *)
  alt_hi : int array;
      (** [-1] when row [i] stands for the as-built wiring, else the
          alternative hi endpoint it stands for, which replaces its
          circuit's hi end; one entry per row, or empty when no row is
          an alternative. *)
  skips : int array;  (** The stage's skip switches. *)
}
(** One stage as parallel columns, for {!assemble}. *)

val assemble : Universe.t -> sources:(int * float) list -> stages:rows array -> compiled
(** [assemble u ~sources ~stages] is a compiled class over [u] with the
    given stages; rows keep the order given, and the columns are copied.
    Each row's endpoints are [u]'s at its circuit, by the stage's
    direction, as in {!compile}.  {!compile} derives the rows from a
    universe; this is for reference compilers and hand-built fixtures.
    As in {!compile} every id is checked once: raises [Invalid_argument]
    when a circuit is not one of [u]'s, a skip, source (with positive
    volume) or alternative endpoint is not one of [u]'s switches, a
    stage's [alt_hi] is neither empty nor as long as its [circuits], or
    a stage's circuits are not in nondecreasing order, as {!compile}
    emits them. *)

val stage_circuit_count : compiled -> int
(** Total candidate circuits across stages (a size diagnostic). *)

val n_stages : compiled -> int
(** Number of compiled stages (hops). *)

val stage_sizes : compiled -> int array
(** Candidate circuits per stage (for incremental-cost estimates). *)

val iter_candidates :
  compiled ->
  f:(stage:int -> circuit:int -> prev:int -> next:int -> unit) ->
  unit
(** Enumerate the static stage candidates with their traversal endpoints.
    The evaluation result depends only on the {e usability} of these
    circuits, which is what makes a block→demand dependency index sound:
    a topology toggle that touches none of a class's candidates (nor
    their endpoints) cannot change the class's flow.  A circuit compiled
    with wiring alternatives is emitted once per row — under its
    as-built endpoints and once per alternative — so dependency indexes
    built from this enumeration cover every wiring the circuit can
    take. *)

val owner_masks :
  compiled ->
  switch_owner:int array ->
  circuit_owner:int array ->
  into:int array ->
  unit
(** [owner_masks c ~switch_owner ~circuit_owner ~into] ORs the stage bit
    of every candidate row ({!iter_candidates}) into the accumulator of
    the owner of its circuit, its prev switch and its next switch:
    [into.(o)] gains bit [min k 61] when stage [k] has a row whose
    circuit [j] has [circuit_owner.(j) = o], or whose prev or next
    switch [s] has [switch_owner.(s) = o].  A negative owner marks an
    element nobody owns.  One call per class: O(rows), no allocation,
    and no call per row.  Raises [Invalid_argument] when an owner array
    is not as long as [c]'s universe has switches or circuits, or when
    an owner is [>= Array.length into]. *)

type scratch
(** Reusable working memory for evaluations (per-switch volumes,
    usefulness marks).  One scratch may be shared by successive
    evaluations on topologies of the same shape, not by concurrent ones. *)

val make_scratch : Universe.t -> scratch
(** Scratch sized to the universe's switch count; activity-independent. *)

type result = {
  delivered : float;  (** Volume that reached the final stage. *)
  stuck : float;
      (** Volume left at a switch with no usable qualifying circuit: a
          violation of the path-existence constraint (Eq. 4). *)
}

val evaluate :
  ?scale:float ->
  ?split:[ `Equal | `Capacity_weighted ] ->
  ?aux:(float array * float) array ->
  Topo.t ->
  scratch ->
  compiled ->
  loads:float array ->
  result
(** [evaluate ?scale ?split ?aux topo scratch c ~loads] pushes the class's
    volume (times [scale], default 1.0 — flow is linear in volume, so
    demand calibration and forecast growth reuse one compilation) through
    the {e currently usable} circuits of [topo], adding every circuit's
    share into [loads] (indexed by circuit id; the caller zeroes it
    between checks).

    [split] selects the hashing policy at each hop: [`Equal] (default) is
    plain ECMP — the same share per next-hop circuit regardless of its
    capacity; [`Capacity_weighted] splits proportionally to circuit
    capacity, modeling the temporary routing configurations operators
    deploy when generations of different capacity coexist (§7.1).

    [aux] (default empty) is the ensemble hook: each ([loads'], [f])
    pair receives every base deposit scaled by [f] — flow is linear in
    class volume, so [loads'] accumulates exactly the load the class
    would place if its volume were scaled by [f].  One traversal thus
    serves every matrix of a demand ensemble.  With [aux] empty the
    base float stream is bit-identical to the historical evaluation.

    Deterministic; [delivered +. stuck] equals [scale] times the class's
    source volume up to rounding.

    Cost: a backward sweep decides once per candidate row whether it
    qualifies — usable under the wiring it was compiled for and leading
    to a switch from which the remaining hops still deliver — and keeps
    the verdict in [scratch], one byte per row.  It is one fused pass
    per stage ({!Topo.sweep_rows}, {!Kutil.Bitset.sweep_rows}) over the
    rows that stand for the as-built wiring: it probes the row's
    circuit, then its next switch, then adds its previous switch to the
    stage's useful set.  It leaves alternative rows not live; once a
    circuit is rewired, each alternative row is probed with
    {!Topo.usable_wired} under its own wiring.  The two forward passes
    (split counting, share deposit) read that byte, probe nothing else
    and make no call per row.  Every pass reads a row's circuit and then its endpoints at
    that circuit, walking the universe's endpoint columns forward.  So a
    call makes one usability probe and one usefulness probe per row, and
    allocates O(stages) words, [aux] deposits included; the weighted
    split alone boxes each qualifying row's capacity, which it reads
    through {!Topo.capacity}.

    The per-row loops make no range check: the ids come from the
    class's validated columns ({!compile}), and the call first compares
    the class's universe counts with [topo], [scratch], [loads] and
    every [aux] vector, once and without allocating.  Raises
    [Invalid_argument] when one of them was sized for another universe
    (a scratch made for a C-tier universe, say, with a D-tier class). *)


(** {1 Incremental evaluation}

    The flow of a class is a pure function of the usability of its static
    stage candidates; between adjacent topology states only a few rows
    change verdict.  An {!inc} records, per stage, every row's last share
    and verdict and every switch's live-row count and entering volume, so
    the next evaluation can re-judge only the rows a toggle reaches,
    re-split only the switches it moved and patch the aggregate loads
    where a share changed. *)

type groups
(** One class's rows grouped by previous and by next switch, stage by
    stage: what lets {!evaluate_patch} visit only the rows of the
    switches it re-judges, re-splits and re-sums.  Immutable: built once
    per task and shared by every checker, across domains too. *)

val group_rows : compiled array -> which:bool array -> groups option array
(** [group_rows cs ~which] groups the rows of each class [cs.(d)] with
    [which.(d)], [None] for the others.  Per stage it numbers the
    switches that can enter it (the sources, or the previous stage's
    next and skip switches) and its own prev and skip switches, and
    sorts the row ids stably by their prev's number and by their next's
    number at the next stage's boundary (past the last stage, a boundary
    of the last stage's next and skip switches), 4 bytes per row each:
    O(rows + switches) per class, plus one int per universe switch of
    scratch shared by every class.  Raises [Invalid_argument] when
    [which] is not one flag per class. *)

type inc
(** Persistent incremental state for one compiled class.  Owned by one
    checker: never share an [inc] across concurrent evaluators. *)

val make_inc : Universe.t -> compiled -> groups -> inc
(** [make_inc u c g] is a fresh incremental state for [c], whose rows
    [g] groups.  Each stage's record is sized once: a share (one float)
    and a verdict (one byte) per row, and a live-row count, an entering
    volume and a flag byte per switch that can enter the stage, plus
    one useful set per stage boundary; with [g]'s two packed row ids,
    the delta layer holds 17 bytes per row.  No evaluation grows a
    record.  Raises [Invalid_argument] when [c] was compiled for a
    universe with other switch or circuit counts than [u], or [g] was
    not built from [c]. *)

val class_stuck : inc -> float
(** Stuck volume of the last {!evaluate_rebuild}/{!evaluate_patch}. *)

type record = {
  shares : float array;
      (** Each row's share from the last evaluation (0.0 where it
          deposited nothing), in row order. *)
  verdicts : Bytes.t;  (** Each row's verdict, ['\001'] when it qualifies. *)
  live_counts : int array;
      (** Per switch that can enter the stage, the qualifying rows it is
          the previous switch of. *)
  volumes : float array;  (** Per such switch, its entering volume. *)
  useful_switches : int list;
      (** The switches useful at the stage's boundary, increasing. *)
}
(** A copy of one stage's record.  Switches come in the order the
    {!groups} number them, so two states made from the same groups
    compare entry by entry. *)

val recorded : inc -> stage:int -> record
(** Stage [stage]'s record of the last evaluation. *)

type toggles
(** What a patch starts from: every switch and every circuit toggled
    (in activity or wiring) since the last evaluation, each once.  One
    per checker, shared by its classes. *)

val make_toggles : Universe.t -> capacity:int -> toggles
(** Nothing noted, with room for [capacity] distinct circuits (a task's
    blocks' circuits, say), so noting that many allocates nothing. *)

val note_toggled : toggles -> switches:int array -> circuits:int array -> unit
(** Note a toggle of these switches and circuits (a block's): O(their
    number).  Raises [Invalid_argument] on an id outside the
    universe. *)

val clear_toggles : toggles -> unit
(** Forget every noted toggle: one [Bytes.fill] over the switches, then
    O(noted circuits). *)

val evaluate_rebuild :
  ?scale:float ->
  ?split:[ `Equal | `Capacity_weighted ] ->
  ?aux:(float array * float) array ->
  Topo.t ->
  scratch ->
  inc ->
  loads:float array ->
  float
(** Full evaluation that (re)captures the incremental state and adds the
    class's shares into [loads] (which the caller has zeroed or otherwise
    cleared of this class's contributions).  Same arithmetic as
    {!evaluate}, including the ensemble [aux] deposits and the entry
    check (raises [Invalid_argument] as {!evaluate} does); it also fills
    every stage's record, the live-row counts included, and sizes
    [scratch]'s delta-layer buffers, so no patch allocates.  Returns the
    stuck volume. *)

val evaluate_patch :
  ?split:[ `Equal | `Capacity_weighted ] ->
  ?aux:(float array * float) array ->
  Topo.t ->
  scratch ->
  inc ->
  dirty:int ->
  toggled:toggles ->
  moved:Bytes.t ->
  loads:float array ->
  float
(** Delta evaluation against the state captured by the last rebuild or
    patch.  [toggled] must hold every switch and circuit toggled since
    then (activity or wiring), and [dirty] is a stage bitmask covering {e every} stage whose candidate
    circuits may have changed usability (bit [k] = stage [k]; stages
    from 61 on share bit 61); [split]/[aux] must match the previous
    evaluation (a moved share's old value is subtracted with the factors
    it was added with, so the old deposit cancels exactly).  The class's
    volume and scale are the recorded ones: no source is re-injected.

    The backward sweep is sparse.  From the highest dirty stage down it
    re-judges, on each dirty stage, the rows whose previous or next
    switch was toggled and the rows over each toggled circuit (found by
    binary search, as a stage's rows come in circuit order) that those
    do not include, and on every stage the rows entering a switch whose
    usefulness flipped one boundary up.  A flipped row
    moves its previous switch's live-row count; a count that reaches or
    leaves zero, or a skip switch whose usefulness one boundary up
    flipped, settles that switch's usefulness.  The forward pass
    re-splits the previous switches of flipped rows, the skips whose
    carrier test flipped and every switch whose entering volume changed
    (an equal split takes its qualifying count from the live count and
    reads its rows once; a [`Capacity_weighted] one sums their capacity
    in row order first), writes [loads], each [aux] vector and the
    record only where a row's share changed, marks each such row's
    circuit in [moved], and re-sums the entering volume of each next
    switch that received a changed share: its incoming rows' shares in
    row order, then the volume it carries as a skip.  Propagation stops
    at a stage whose volumes all come out bit-equal.  Every recomputed
    verdict, count, useful set, share and volume is the dense expression
    over the same operands in the same order, so the records stay
    bit-equal to a rebuild's ({!recorded}); [loads] and the stuck volume
    drift by rounding, and a stage with no stuck switch reads exactly
    0.0.

    [moved] is a circuit bitset, bit [j land 7] of byte [j lsr 3] for
    circuit [j] ({!Topo.circuit_marks} makes one); bits are only set,
    never cleared, so one set gathers every patch of an evaluation for
    the θ test ({!Topo.theta_rejudge}).

    The work is O(rows grouped under the toggled and flipped switches +
    toggled circuits × log(stage rows) + rows of the re-split and
    re-summed switches + the local switch counts of the boundaries the
    passes visit), not O(stage rows);
    nothing is allocated.  Makes the entry check of {!evaluate} and
    raises [Invalid_argument] as it does, when [toggled] or [moved] was
    sized for another universe, or when nothing was evaluated yet.
    Returns the class's stuck volume. *)
