(** Dense mutable bitsets over [0 .. n-1].

    Topology states flip thousands of switch/circuit activity flags per
    satisfiability check; a packed bitset keeps those flags cache-friendly
    and makes population counts cheap. *)

type t
(** A fixed-capacity mutable set of small integers. *)

val create : int -> t
(** [create n] is an empty bitset able to hold elements [0 .. n-1]. *)

val create_full : int -> t
(** [create_full n] holds every element of [0 .. n-1]. *)

val mem : t -> int -> bool
(** Membership test.  Raises [Invalid_argument] when out of range. *)

val add : t -> int -> unit
(** Insert an element (idempotent). *)

val remove : t -> int -> unit
(** Delete an element (idempotent). *)

val set : t -> int -> bool -> unit
(** [set t i b] makes [mem t i = b]. *)

val mem_rows : t -> int array -> Bytes.t -> unit
(** [mem_rows t rows mask] tests a row array against [t]: for every row
    [i] whose mask byte is set (non-zero), the byte is cleared unless
    [rows.(i)] is a member.  Unset bytes are left alone, so successive
    kernels narrow one mask.  Reads [Bytes.length mask >= Array.length
    rows] bytes; raises [Invalid_argument] when a masked row is out of
    range, as {!mem} does, or when [mask] is too short. *)

val add_rows : t -> int array -> Bytes.t -> unit
(** [add_rows t rows mask] adds [rows.(i)] for every row [i] whose mask
    byte is set.  Same bounds checking as {!mem_rows}. *)

val sweep_rows :
  usable:t ->
  useful:t ->
  into:t ->
  circuits:Col.t ->
  nexts:Col.t ->
  prevs:Col.t ->
  Bytes.t ->
  unit
(** [sweep_rows ~usable ~useful ~into ~circuits ~nexts ~prevs live] is
    one backward-sweep step over a stage's rows in a single pass: row
    [i] is live when [usable] holds [circuits.ids.(i)] and [useful]
    holds [nexts.ids.(i)]; byte [i] of [live] is set to ['\001'] for a
    live row and to ['\000'] otherwise, and a live row adds
    [prevs.ids.(i)] to [into].  Same probes as filling [live] from
    [usable] and then running {!mem_rows} on [useful] and {!add_rows} on
    [into]: [nexts] is read only when the circuit is a member and
    [prevs] only for a live row.

    The columns' entries were proved in range when they were built
    ({!Col.make}), so the row loop makes no range check.  It checks once
    per call instead, and raises [Invalid_argument] before touching any
    row, when a column's bound exceeds its set's capacity ([circuits]
    against [usable], [nexts] against [useful], [prevs] against
    [into]), or when [nexts], [prevs] or [live] is shorter than
    [circuits]. *)

val cardinal : t -> int
(** Number of elements currently present (O(n/8) byte popcount). *)

val copy : t -> t
(** An independent clone. *)

val clear : t -> unit
(** Remove every element. *)

val fill : t -> unit
(** Insert every element of [0 .. n-1] (O(n/8)). *)

val iter : (int -> unit) -> t -> unit
(** [iter f t] applies [f] to each member in increasing order.  Zero
    bytes are skipped: O(n/8) plus the number of members. *)

val to_list : t -> int list
(** Members in increasing order. *)

val equal : t -> t -> bool
(** Same capacity and same members. *)
