(* Deterministic Hashtbl traversal.

   [Hashtbl.iter]/[Hashtbl.fold] visit bindings in hash-layout order: a
   function of the hash function, the table's growth history and — for
   polymorphic hash on boxed keys — nothing the reader of the call site
   can see.  Any float accumulation or user-visible sequence built that
   way is order-sensitive, which is exactly what the incremental
   checker's bit-identity contract (and sentinel rule S2) forbids.  These
   helpers sort the keys first, so traversal order is a pure function
   of the table's contents.

   Intended for tables populated with [Hashtbl.replace] (one binding
   per key); with [Hashtbl.add] duplicates, only each key's most recent
   binding is visited, once. *)

let sorted_keys ~compare:cmp tbl =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
  List.sort_uniq cmp keys

let sorted_iter ~compare f tbl =
  List.iter (fun k -> f k (Hashtbl.find tbl k)) (sorted_keys ~compare tbl)
