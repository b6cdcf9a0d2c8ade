(** ASCII table rendering for the benchmark harness.

    The evaluation section of the paper is a set of tables and bar charts;
    the bench executable regenerates each of them as an aligned text table,
    and this module does the alignment. *)

type align = Left | Right | Center

type t
(** A table under construction. *)

val create : headers:string list -> t
(** [create ~headers] starts a table with one header row.  Every
    subsequently added row must have the same arity. *)

val add_row : t -> string list -> unit
(** Append a data row.  Raises [Invalid_argument] on arity mismatch. *)

val render : ?align:align -> t -> string
(** Render with box-drawing characters, columns sized to fit
    (default alignment [Left], numbers look best with [Right]). *)

val print : ?align:align -> t -> unit
(** [print t] writes [render t] to stdout followed by a newline. *)
