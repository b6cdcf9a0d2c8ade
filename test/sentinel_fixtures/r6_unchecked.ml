(* R6 fixture: unchecked access outside Kutil.Col. *)

let get a i = Array.unsafe_get a i
let poke b i = Bytes.unsafe_set b i 'x'
let peek s i = String.unsafe_get s i
let fget a i = Float.Array.unsafe_get a i
let byte n = Char.unsafe_chr n

(* Through a module alias, which only path resolution sees. *)
module A = ArrayLabels
let aliased a i = A.unsafe_get a i

(* An external bound to an unchecked primitive. *)
external raw_get : 'a array -> int -> 'a = "%array_unsafe_get"

(* Checked access is no site. *)
let checked a i = a.(i) + Array.get a i

(* A reasoned annotation excuses every site in its binding, nested
   loops and functions included. *)
let sum a =
  let acc = ref 0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc + Array.unsafe_get a i
  done;
  !acc
[@@klotski.unchecked "i ranges over the array's own indices"]

external vouched_get : 'a array -> int -> 'a = "%array_unsafe_get"
[@@klotski.unchecked "fixture: every caller passes an in-range index"]

(* Without a reason an annotation is a finding and excuses nothing. *)
let bare a = Array.unsafe_get a 0 [@@klotski.unchecked]

(* An annotation that excuses no site is stale. *)
let stale a = a.(0) [@@klotski.unchecked "nothing here is unchecked"]
