(* Suppression fixture: every violation below carries a reasoned allow
   directive, so the file is clean. *)

(* klotski-lint: allow R1 "fixture: keys are ints, order is irrelevant" *)
let sorted xs = List.sort compare xs

(* klotski-lint: allow R3 R5 "fixture: exact sentinel, test-only print" *)
let probe x = if x = 0.0 then print_endline "sentinel"
