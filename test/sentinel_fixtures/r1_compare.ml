(* R1 fixture: polymorphic comparison and hashing. *)

let sort_pairs pairs = List.sort compare pairs
let lookup_hash key = Hashtbl.hash key
let is_origin p = p = (0, 0)
let as_predicate = ( = )

(* An action-alphabet-shaped variant: a constructor carrying a record
   payload, compared polymorphically — the shape R1 exists to keep out
   of the planner's ordering semantics. *)
type op = Drain | Undrain | Rewire of { sel : string; hi : int }

let is_rewire_to o = o = Rewire { sel = "eb0-uplinks"; hi = 36 }
let dedup_ops ops = List.sort_uniq compare ops

(* Not findings: a dedicated comparator, and a labelled-argument pun
   that passes the local [compare] rather than [Stdlib.compare]. *)
let fine xs = List.sort Int.compare xs
let pun ~compare xs = List.sort compare xs

(* Not a finding: the hand-written rank comparator the real alphabet
   uses instead. *)
let rank = function Drain -> 0 | Undrain -> 1 | Rewire _ -> 2
let compare_op a b = Int.compare (rank a) (rank b)

(* Decided by the types: the compiler specialises [compare] on ints, so
   sorting an [int list] is not a finding, while a hash through a module
   alias at an unknown type is. *)
let ints (xs : int list) = List.sort compare xs
module H = Hashtbl
let aliased_hash x = H.hash x

(* Specialised whatever the type: [=]/[<>] against a constant
   constructor or an argument-less variant compiles to an immediate
   [==]/[!=].  [<] and [compare] have no such case and stay findings. *)
let is_empty l = l = []
let is_some o = o <> None
let is_none_tag b = b = `None
let below o = o < None
let against_none o = compare o None
