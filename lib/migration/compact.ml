type t = Kutil.Vec_key.t

let origin actions = Kutil.Vec_key.zeros (Action.Set.cardinal actions)

let succ v i =
  let v' = Array.copy v in
  v'.(i) <- v'.(i) + 1;
  v'

let pred v i =
  if v.(i) = 0 then invalid_arg "Compact.pred: no finished action of type";
  let v' = Array.copy v in
  v'.(i) <- v'.(i) - 1;
  v'

let is_target (v : t) ~(counts : int array) =
  let n = Array.length v in
  let rec loop i = i >= n || (v.(i) = counts.(i) && loop (i + 1)) in
  loop 0

let finished v = Kutil.Vec_key.total v

let state_space_size ~counts =
  Array.fold_left (fun acc c -> acc *. float_of_int (c + 1)) 1.0 counts
