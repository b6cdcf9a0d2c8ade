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

val sweep_rows :
  usable:t ->
  rewired:t option ->
  useful:t ->
  into:t ->
  circuits:Col.t ->
  alt_hi:int array ->
  nexts:Col.t ->
  prevs:Col.t ->
  Bytes.t ->
  unit
(** [sweep_rows ~usable ~rewired ~useful ~into ~circuits ~alt_hi ~nexts
    ~prevs live] is one backward-sweep step over a stage's as-built rows
    in a single pass.  Row [i] runs over circuit [j = circuits.ids.(i)],
    from switch [prevs.ids.(j)] to switch [nexts.ids.(j)]: [nexts] and
    [prevs] are endpoint columns indexed by circuit id.  The row is live
    when it stands for the as-built wiring ([alt_hi] is empty or
    [alt_hi.(i)] is negative), [usable] holds [j], [rewired] does not
    ([None]: no circuit is rewired) and [useful] holds its next switch;
    byte [i] of [live] is set to ['\001'] for a live row and to ['\000']
    otherwise, and a live row adds its previous switch to [into].  An
    alternative row is left not live, for the caller to probe under its
    own wiring.  [nexts] is read only when the circuit is a member and
    [prevs] only for a live row.

    The columns' entries were proved in range when they were built
    ({!Col.make}), so the row loop makes no range check.  It checks once
    per call instead, and raises [Invalid_argument] before touching any
    row, when a column's bound exceeds its set's capacity ([circuits]
    against [usable] and [rewired], [nexts] against [useful], [prevs]
    against [into]), when [nexts] or [prevs] is shorter than
    [circuits]' bound, when [alt_hi] is neither empty nor as long as
    [circuits], or when [live] is shorter than [circuits]. *)

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
