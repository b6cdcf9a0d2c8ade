(** NPD pretty-printer.

    [parse (to_string doc)] equals [doc] for every well-formed document
    (property-tested round trip). *)

val to_string : Npd_ast.t -> string
(** Render a document in canonical two-space-indented form. *)

val write_file : string -> Npd_ast.t -> (unit, string) result
(** Write the canonical form to a file. *)
