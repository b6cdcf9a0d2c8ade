include Col_prim

type t = { ids : int array; bound : int }

(* A plain loop: a closure here would be allocated per column built. *)
let make ~what ~bound ids =
  for i = 0 to Array.length ids - 1 do
    let x = ids.(i) in
    if x < 0 || x >= bound then
      invalid_arg (Printf.sprintf "%s %d out of range [0, %d)" what x bound)
  done;
  { ids; bound }
