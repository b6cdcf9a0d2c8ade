(* Module-level mutable state shared by every fixture "worker".  The
   writes in the other fixtures target these cells; [bump_pool] is the
   write site only reachable through [Fx_pool]'s module alias. *)

let total = ref 0
let leaky = ref 0
let pool_hits = ref 0

let audited = ref 0
  [@@klotski.domain_safe "fixture: audited accumulator, writes are benign"]

let lock = Mutex.create ()
let count = ref 0

let bump_pool () = incr pool_hits

(* An annotation without a reason vouches for nothing: the write in
   [Fx_engine.check] is still a race, and the state is not audited. *)
let bare = ref 0 [@@klotski.domain_safe]
