(* S4: audit rot — an annotation on an immutable binding and a
   suppression directive with no finding under it. *)

let limit = 42 [@@klotski.domain_safe "fixture: nothing mutable here"]

(* klotski-lint: allow S2 "fixture: suppresses nothing" *)
let unrelated = limit + 1
