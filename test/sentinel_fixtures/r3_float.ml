(* R3 fixture: float equality; hash-order float accumulation is S2's. *)

let is_zero x = x = 0.0
let nonzero x = x <> 0.0
let total tbl = Hashtbl.fold (fun _ v acc -> acc +. v) tbl 0.0

(* Not findings: Float.equal, and an integer fold accumulates no floats. *)
let ok x = Float.equal x 0.0
let count tbl = Hashtbl.fold (fun _ _ n -> n + 1) tbl 0

(* No literal on either side: the type alone makes it a float equality.
   Ordering floats is specialised and fine. *)
let same (a : float) b = a = b
let order (a : float) b = compare a b
