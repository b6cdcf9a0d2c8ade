(** Deterministic [Hashtbl] traversal: visit bindings in sorted-key
    order instead of hash-layout order, so outputs and float
    accumulations built from a table are a pure function of its
    contents (sentinel rule S2).  Tables are expected to hold one binding
    per key ([Hashtbl.replace] discipline); with [Hashtbl.add]
    duplicates only the most recent binding per key is visited. *)

val sorted_iter :
  compare:('k -> 'k -> int) -> ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit
(** [sorted_iter ~compare f tbl] applies [f] to each binding in
    ascending key order. *)
