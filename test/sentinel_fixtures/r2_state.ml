(* R2 fixture: module-level mutable state in a library unit, which
   every domain shares. *)

let hits = ref 0
let memo : (int, int) Hashtbl.t = Hashtbl.create 64

(* Annotated with a reason: accepted. *)
let lut = Array.make 256 0
[@@klotski.domain_safe "built before domains spawn, read-only after"]

(* Annotation without a reason: the annotation is a finding and the
   mutable state it meant to bless is still reported. *)
let buf = Buffer.create 80 [@@klotski.domain_safe]

(* Inside a function body: not module-initialization state, no finding. *)
let counter () =
  let n = ref 0 in
  fun () ->
    incr n;
    !n

(* Nested modules and functor arguments initialise with the unit. *)
module Nested = struct
  let depth = ref 0
end

module Memo = Hashtbl.Make (struct
  type t = int
  let equal = Int.equal
  let hash x = x
  let seen = ref 0
end)
