(* SplitMix64 (Steele, Lea, Flood; JDK8).  Tiny state, excellent statistical
   quality for simulation workloads, and trivially splittable. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let next_int64 g =
  g.state <- Int64.add g.state golden_gamma;
  let z = g.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split g =
  let seed = Int64.to_int (next_int64 g) in
  { state = Int64.of_int seed }

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Keep 62 bits: OCaml's native int is 63-bit, so a 63-bit value would
     wrap negative under Int64.to_int. *)
  let raw = Int64.to_int (Int64.shift_right_logical (next_int64 g) 2) in
  raw mod bound

let float g bound =
  (* 53 uniform mantissa bits, scaled to [0, bound). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 g) 11) in
  float_of_int bits /. 9007199254740992.0 *. bound

let uniform g ~lo ~hi = lo +. float g (hi -. lo)

let gaussian g ~mu ~sigma =
  let rec nonzero () =
    let u = float g 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float g 1.0 in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let exponential g ~rate =
  if rate <= 0.0 then invalid_arg "Prng.exponential: rate must be positive";
  let rec nonzero () =
    let u = float g 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  -.log (nonzero ()) /. rate

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick g a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int g (Array.length a))
