type t = { id : int; lo : int; hi : int; capacity : float }

let make ~id ~lo ~hi ~capacity =
  if capacity <= 0.0 then invalid_arg "Circuit.make: non-positive capacity";
  { id; lo; hi; capacity }

let other_end c s =
  if s = c.lo then c.hi
  else if s = c.hi then c.lo
  else invalid_arg "Circuit.other_end: switch not an endpoint"

