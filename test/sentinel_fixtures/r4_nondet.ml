(* R4 fixture: nondeterminism sources outside lib/util/{prng,timer}.ml. *)

let jitter () = Random.float 1.0
let stamp () = Unix.gettimeofday ()
let cpu () = Sys.time ()
let who () = Domain.self ()

(* Through a module alias, which only path resolution sees. *)
module U = Unix
let aliased () = U.gettimeofday ()

(* Inside a functor argument, through an alias declared there. *)
module Stamped = Hashtbl.Make (struct
  module V = Unix
  type t = float
  let equal = Float.equal
  let hash _ = int_of_float (V.time ())
end)
