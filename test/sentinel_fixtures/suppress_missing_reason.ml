(* Suppression fixture: a directive without a reason string is itself a
   finding, and the violation it meant to silence survives. *)

(* klotski-lint: allow R1 *)
let sorted xs = List.sort compare xs

(* A directive naming a rule the catalog does not have is a finding too. *)
(* klotski-lint: allow S9 "fixture: no such rule" *)
let sorted_again xs = List.sort compare xs
