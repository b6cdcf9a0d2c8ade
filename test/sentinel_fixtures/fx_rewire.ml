(* R2 on an effect-style dispatch over an action alphabet (the Rewire
   op carries a record payload): a module-level ref and a module-level
   atomic are both state every domain shares, whichever match arm
   writes them. *)

type op = Drain | Undrain | Rewire of { sel : string; hi : int }

let rewires = ref 0

let flips = Atomic.make 0

let apply_effect = function
  | Drain | Undrain -> ()
  | Rewire _ -> incr rewires

let apply_guarded = function
  | Drain | Undrain -> ()
  | Rewire { hi; _ } -> if hi >= 0 then Atomic.incr flips

let apply ops =
  List.iter apply_effect ops;
  List.iter apply_guarded ops
