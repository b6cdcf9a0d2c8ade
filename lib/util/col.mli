(** Validated id columns, and the unchecked accessors of the row kernels.

    A satisfiability check's row kernels ({!Bitset.sweep_rows} and the
    ECMP forward passes) index per-circuit and per-switch vectors with
    ids read from a compiled class's columns, and from the universe's
    endpoint columns at those ids.  Instead of a range check
    per access, every id is proved in range once, when its column is
    built ({!make}), and each kernel compares a column's [bound] with
    the length of every vector it indexes once per call.  The per-row
    loops then go through {!get}, {!set}, {!get_byte} and {!set_byte},
    which skip the range check.

    The accessors are [external] primitives, because under dune's
    [-opaque] dev profile an [external] is the only value another module
    compiles inline; an [[@inline]] function would be a call per row.
    Under the [checked] profile ([dune build --profile checked]) the
    same names are the bounds-checked primitives, so a test run there
    turns an entry check that proves too little into [Invalid_argument]
    rather than a stray memory access.  Sentinel rule R6 reports
    unchecked access outside this module unless its binding records why
    it is sound. *)

type t = private { ids : int array; bound : int }
(** A column: every entry of [ids] lies in [\[0, bound)].  The column
    owns [ids]: nothing may write it after {!make}. *)

val make : what:string -> bound:int -> int array -> t
(** [make ~what ~bound ids] checks every entry once and takes ownership
    of [ids].  Raises [Invalid_argument] naming [what] and the entry
    when one lies outside [\[0, bound)]. *)

(** [get a i], [set a i x], [get_byte b i] and [set_byte b i c] are
    [a.(i)], [a.(i) <- x], [Bytes.get b i] and [Bytes.set b i c] without
    the range check (with it, under the [checked] profile).  The caller
    proves [0 <= i < length]: from a column's [bound], a vector length
    checked on entry, or a loop bound.  [get_int32 b o], [set_int32 b o
    x] and [get_int64 b o] are [Bytes.get_int32_ne b o],
    [Bytes.set_int32_ne b o x] and [Bytes.get_int64_ne b o] on the same
    terms: the delta layer's packed row ids and its live-verdict
    diff. *)
include module type of Col_prim
