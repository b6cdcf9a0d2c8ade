(* Module-level mutable state (R2) and the audited list: one cell
   audited with a reason, one annotated without one. *)

let total = ref 0

let audited = ref 0
  [@@klotski.domain_safe "fixture: audited accumulator, writes are benign"]

(* An annotation without a reason vouches for nothing: the state is
   still reported, and it is not audited. *)
let bare = ref 0 [@@klotski.domain_safe]
