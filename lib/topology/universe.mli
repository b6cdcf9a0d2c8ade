(** The immutable, domain-shareable half of a topology.

    A universe records everything about a migration's network that never
    changes while planning: switches, circuit endpoints/capacities, the
    up/down adjacency and per-switch port budgets.  All of it is built
    once by {!create_packed} and never mutated
    afterwards, so a single universe is safely shared —
    physically, without copies or locks — by every {!Topo.t} overlay and
    hence every constraint checker built from one task, on any
    domain.

    Storage is packed: circuits live in flat parallel arrays (endpoints,
    unboxed capacities, rank pairs) and adjacency is CSR-style — one flat
    array of circuit ids with per-switch offset ranges.  The flat
    accessors ({!capacity}, {!endpoint_lo}, {!iter_up}, …) read those
    arrays directly and are the hot-path API; {!circuit}, {!circuits}
    and friends materialize {!Circuit.t} record views for cold/API
    paths.  Accessors that return arrays always return fresh copies —
    mutating a returned array never affects the universe — except
    {!ends}, which shares the endpoint columns with the row kernels.

    The mutable half (activity flags, usable degrees, port-violation
    counters) lives in {!Topo}, which holds a reference to its universe. *)

type t

val create_packed :
  switches:Switch.t array ->
  ep_lo:int array ->
  ep_hi:int array ->
  cap:float array ->
  rank_pair:int array ->
  t
(** [create_packed ~switches ~ep_lo ~ep_hi ~cap ~rank_pair] freezes the
    static structure, circuits given directly as parallel arrays (circuit
    [j] runs [ep_lo.(j)] → [ep_hi.(j)] with capacity [cap.(j)] and rank
    pair [rank_pair.(j)]) — {!Builder.freeze}'s entry point, allocating
    no intermediate records.  The columns must be a builder's:
    [switches.(i).id] equals [i], and every circuit's endpoints are in
    range and go lower → higher {!Switch.rank}, with [rank_pair] as
    {!rank_pair} describes.  {!Builder.add_circuit} checks each circuit
    once as it is added; here the columns' lengths are compared and the
    endpoints are proved below the switch count once more, as the
    {!Kutil.Col}s {!ends} hands out: O(|C|), no copy.  Raises
    [Invalid_argument] when the lengths differ or an endpoint is out of
    range.  The arrays are owned by the universe afterwards and must not
    be mutated by the caller. *)

val n_switches : t -> int
val n_circuits : t -> int

val switch : t -> int -> Switch.t
(** [switch u i] is the switch with id [i]. *)

val circuit : t -> int -> Circuit.t
(** [circuit u j] is a freshly allocated record view of circuit [j].
    Cold/API paths only — hot loops read {!capacity} and
    {!endpoint_lo}/{!endpoint_hi} instead. *)

val switches : t -> Switch.t array
(** A fresh copy of the switch array; mutating it has no effect. *)

val circuits : t -> Circuit.t array
(** Freshly allocated record views of every circuit; mutating the array
    has no effect.  O(n_circuits) allocation — cold paths only. *)

(** {1 Flat accessors (hot paths)} *)

val capacity : t -> int -> float
(** [capacity u j] is circuit [j]'s capacity, read from the unboxed
    float array. *)

val endpoint_lo : t -> int -> int
(** [endpoint_lo u j] is the lower-{!Switch.rank} endpoint of [j]. *)

val endpoint_hi : t -> int -> int
(** [endpoint_hi u j] is the higher-rank endpoint of [j]. *)

val ends : t -> [ `Up | `Down ] -> Kutil.Col.t * Kutil.Col.t
(** [ends u dir] is the pair of endpoint columns, indexed by circuit id,
    that give a row running over a circuit in direction [dir] its
    (previous, next) switch: (lo, hi) going [`Up], (hi, lo) going
    [`Down].  Each entry was proved below {!n_switches} by
    {!create_packed} and each column is {!n_circuits} long, so a kernel
    that reads a circuit id from a column bounded by {!n_circuits} reads
    its endpoints without a range check.  The columns are the
    universe's own, not copies: nothing may write them. *)

val other_endpoint : t -> int -> int -> int
(** [other_endpoint u j s] is the endpoint of circuit [j] opposite [s].
    Raises [Invalid_argument] if [s] is not an endpoint of [j]. *)

val rank_pair : t -> int -> int
(** [rank_pair u j] is [rank lo_role * 16 + rank hi_role] — a packed tag
    identifying the layer pair the circuit spans (roles map one-to-one
    onto ranks). *)

val max_ports : t -> int -> int
(** [max_ports u i] is switch [i]'s port budget. *)

val up_degree : t -> int -> int
(** Number of circuits whose [lo] endpoint is the given switch. *)

val down_degree : t -> int -> int
(** Number of circuits whose [hi] endpoint is the given switch. *)

val iter_up : t -> int -> f:(int -> unit) -> unit
(** [iter_up u s ~f] applies [f] to each circuit id whose [lo] endpoint
    is [s], in increasing id order, without allocating. *)

val iter_down : t -> int -> f:(int -> unit) -> unit
(** [iter_down u s ~f]: as {!iter_up} for [hi] endpoints. *)

val iter_incident : t -> int -> f:(int -> unit) -> unit
(** [iter_incident u s ~f] is [iter_up] then [iter_down]. *)

(** {1 Load scans}

    One call per scan over a per-circuit load vector ([loads], indexed by
    circuit id): the loop reads the capacity array in place, so no
    capacity is boxed per circuit.  A circuit counts only when its load is
    positive and it is a member of [usable] (the overlay's usable set);
    membership is probed after the float tests, which gives the same
    verdicts and probes only the circuits those tests single out.  Every
    access is bounds-checked: raises [Invalid_argument] when [loads] or a
    listed circuit is past the universe's circuits or [usable]. *)

val theta_ok : t -> usable:Kutil.Bitset.t -> float array -> theta:float -> bool
(** [theta_ok u ~usable loads ~theta] holds when every counted circuit
    has [loads.(j) /. capacity j <= theta] (Eq. 5). *)

val min_residual :
  t -> usable:Kutil.Bitset.t -> float array -> theta:float -> float
(** [min_residual u ~usable loads ~theta] is the minimum over counted
    circuits of [((theta *. w) -. load) /. w], [w] the capacity;
    [infinity] when no circuit counts. *)

val hottest :
  t -> usable:Kutil.Bitset.t -> float array -> int array -> float array -> unit
(** [hottest u ~usable loads top_j top_u] keeps the counted circuits of
    highest [loads.(j) /. capacity j] in the two equally long arrays,
    highest first: a circuit enters when its utilization exceeds the last
    entry of [top_u] and moves up past every entry it exceeds.  The
    caller seeds them ([-1] and [neg_infinity]). *)

val funneling_ok :
  t ->
  usable:Kutil.Bitset.t ->
  float array ->
  int array ->
  phi:float ->
  theta:float ->
  bool
(** [funneling_ok u ~usable loads circuits ~phi ~theta] holds when every
    counted circuit of [circuits] has [loads.(j) *. (1.0 +. phi) /.
    capacity j <= theta]. *)

(** {2 Kept θ verdicts}

    A circuit is {e over θ} exactly when {!theta_ok}'s test fails it:
    it counts and [loads.(j) /. capacity j <= theta] does not hold.  A
    caller keeps one flag bit per circuit and the number set, so θ
    holds when that number is zero, and re-judges only the circuits
    whose load or usability may have moved.  Flags and marks are
    circuit bitsets: circuit [j] is bit [j land 7] of byte [j lsr 3]. *)

val theta_count :
  t -> usable:Kutil.Bitset.t -> float array -> theta:float -> over:Bytes.t -> int
(** [theta_count u ~usable loads ~theta ~over] sets exactly the bits of
    [over] of the circuits over θ and returns their number.  Raises
    [Invalid_argument] when [over] has fewer bits than [loads] has
    entries. *)

val mark_incident : t -> Bytes.t -> int -> unit
(** [mark_incident u marks s] sets the bit of every circuit incident to
    switch [s] as built. *)

val theta_rejudge :
  t ->
  usable:Kutil.Bitset.t ->
  marks:Bytes.t ->
  loads:float array array ->
  over:Bytes.t array ->
  n_over:int array ->
  theta:float ->
  unit
(** [theta_rejudge u ~usable ~marks ~loads ~over ~n_over ~theta]
    re-judges every circuit marked in [marks] under each load vector
    [loads.(v)], as {!theta_count} judges it, keeping [over.(v)] and
    [n_over.(v)] in step, and clears the marks.  It reads the marks
    eight bytes at a time, so a call costs O(|marks| / 8 + marked
    circuits × vectors).  Raises [Invalid_argument] when [over] and
    [n_over] are not one per load vector or a flag set has fewer bits
    than its vector has entries. *)

(** {1 Route compilation}

    The hop kernel of [Ecmp.compile]: one call per hop emits the hop's
    candidate rows, reading the endpoint and adjacency arrays in place
    and keeping its switch and circuit marks as bits it tests inline. *)

type rows = {
  dir : [ `Up | `Down ];
      (** The hop's direction: row [i] runs from its circuit's endpoint
          in the first of [ends u dir] to the one in the second. *)
  circuits : int array;  (** Row [i]'s circuit. *)
  alt_hi : int array;
      (** [-1] when row [i] stands for the as-built wiring, else the
          alternative hi endpoint it stands for, which replaces its
          circuit's hi endpoint (the next switch going up, the previous
          one going down); one entry per row, or empty when no row is an
          alternative. *)
  skips : int array;  (** The stage's skip switches. *)
}
(** One hop's rows as parallel columns.  A row holds its circuit and
    nothing more: its endpoints are the universe's ({!ends}). *)

type walk
(** The frontier of one class's walk through its hops, with its scratch
    marks: O(|S|/8 + |C|/8) bytes. *)

val start_walk : t -> sources:int array -> alts:(int * int) list -> walk
(** [start_walk u ~sources ~alts] is a walk whose first hop starts at
    [sources].  [alts] lists [(circuit, alt_hi)] wiring alternatives;
    repeated pairs count once.  Raises [Invalid_argument] when a source,
    an alternative's circuit or its endpoint is out of range. *)

val walk_hop :
  t ->
  walk ->
  dir:[ `Up | `Down ] ->
  accept:(Switch.t -> bool) ->
  skip:(Switch.t -> bool) ->
  rows
(** [walk_hop u w ~dir ~accept ~skip] emits the rows of one hop and
    moves [w]'s frontier past it.  A row runs over a circuit in
    direction [dir], under its as-built wiring or one of its
    alternatives, from a frontier switch to a switch [accept] admits.
    Rows come in increasing circuit id, per circuit the as-built row
    first and then its alternatives in [alts] order.  [skips] lists, in
    increasing id, the frontier switches [skip] holds for.  The next
    frontier is the rows' next switches and the skips.

    [accept] and [skip] run at most once per switch per call, so both
    must be pure.  Cost: O(frontier degree + |alts|) to count the rows,
    one pass over the circuit marks between the lowest and highest
    marked id (at most |C|/8 bytes) to fill them, and O(|S|/8) to walk
    and reset the switch marks.  Each column is allocated once, at its
    final length: one word per row, two on a hop with alternative rows,
    and nothing else is allocated per row. *)

(** {1 Array views (cold paths)} *)

val up_circuits : t -> int -> int array
(** [up_circuits u s]: fresh array of ids of circuits whose [lo]
    endpoint is [s] (toward higher layers), in increasing id order.
    Allocates — hot loops use {!iter_up}. *)

val down_circuits : t -> int -> int array
(** [down_circuits u s]: fresh array of ids of circuits whose [hi]
    endpoint is [s]. *)

val footprint : t -> (string * int) list
(** Estimated heap bytes per packed component (switch records, endpoint
    arrays, capacities, adjacency, …), excluding switch name strings.
    For memory reporting. *)
