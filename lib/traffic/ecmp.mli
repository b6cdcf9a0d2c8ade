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
    volume) or alternative endpoint is not one of [u]'s switches, or a
    stage's [alt_hi] is neither empty nor as long as its [circuits]. *)

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
    stage candidates; between adjacent topology states only a few stages'
    candidates change usability.  An {!inc} records, per stage, the
    entering volumes, per-circuit shares and stuck volume of the last
    evaluation, so the next one can re-run only the affected suffix of
    the stage pipeline and patch the aggregate loads. *)

type inc
(** Persistent incremental state for one compiled class.  Owned by one
    checker: never share an [inc] across concurrent evaluators. *)

val make_inc : Universe.t -> compiled -> inc
(** [make_inc u c] is a fresh incremental state for [c].  Each stage's
    contribution record is sized once, to the stage's row count — the
    most shares an evaluation can record there — so no evaluation grows
    it; the entering-volume records start small and grow.  Raises
    [Invalid_argument] when [c] was compiled for a universe with other
    switch or circuit counts than [u]. *)

val class_stuck : inc -> float
(** Stuck volume of the last {!evaluate_rebuild}/{!evaluate_patch}. *)

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
    check (raises [Invalid_argument] as {!evaluate} does); returns the
    stuck volume. *)

val evaluate_patch :
  ?scale:float ->
  ?split:[ `Equal | `Capacity_weighted ] ->
  ?aux:(float array * float) array ->
  Topo.t ->
  scratch ->
  inc ->
  dirty:int ->
  loads:float array ->
  float
(** Delta evaluation against the state captured by the last rebuild or
    patch.  [dirty] is a stage bitmask covering {e every} stage whose
    candidate circuits may have changed usability since then (bit [k] =
    stage [k]); [scale]/[split]/[aux] must match the previous evaluation
    (stale aux shares are subtracted with the same factors they were
    added with, so they cancel exactly).

    The useful sets are re-derived backwards and compared with the
    snapshot, stopping at the first stage at or below the lowest dirty
    one whose set is unchanged: stages before the first dirty stage whose
    consulted useful sets are unchanged are provably identical and reused
    verbatim, the rest are re-run from the recorded entering volumes.
    Only re-derived stages are probed, once per row as in {!evaluate};
    the re-run reads their row verdicts, and records its shares without
    boxing them.  [loads] is patched in place — stale suffix shares
    subtracted, fresh ones added — and no list of touched circuits is
    kept: the caller rescans the whole vector for θ.  Makes the entry
    check of {!evaluate} and raises [Invalid_argument] as it does, or
    when nothing was evaluated yet.  Returns the class's stuck volume. *)
