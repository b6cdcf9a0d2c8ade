(* Written to hold only inside the range: NaN fails every comparison. *)
let check_alpha alpha =
  if not (alpha >= 0.0 && alpha <= 1.0) then
    invalid_arg "Cost: alpha must lie in [0, 1]"

let weight weights a =
  match weights with
  | None -> 1.0
  | Some w ->
      if a < 0 || a >= Array.length w then
        invalid_arg "Cost: action type outside the weight table"
      else begin
        if w.(a) <= 0.0 then invalid_arg "Cost: weights must be positive";
        w.(a)
      end

let step ~alpha ?weights ~last a =
  check_alpha alpha;
  let w = weight weights a in
  match last with Some l when l = a -> alpha *. w | Some _ | None -> w

let sequence ~alpha ?weights seq =
  let total, _ =
    List.fold_left
      (fun (acc, last) a -> (acc +. step ~alpha ?weights ~last a, Some a))
      (0.0, None) seq
  in
  total

let heuristic ~alpha ?weights remaining =
  check_alpha alpha;
  let acc = ref 0.0 in
  Array.iteri
    (fun a n ->
      if n > 0 then
        acc :=
          !acc
          +. (weight weights a *. (1.0 +. (alpha *. float_of_int (n - 1)))))
    remaining;
  !acc

let heuristic_with_last ~alpha ?weights ~last remaining =
  let base = heuristic ~alpha ?weights remaining in
  match last with
  | Some a when a >= 0 && a < Array.length remaining && remaining.(a) > 0 ->
      (* The run of type [a] is already open: its next action costs
         alpha*w, not a fresh serial start w.  Without this tightening
         Eq. 9 would overestimate by (1 - alpha)*w whenever the current
         type still has remaining actions, breaking admissibility under
         our bookkeeping (g pays the full w at the start of each run). *)
      base -. ((1.0 -. alpha) *. weight weights a)
  | Some _ | None -> base

let runs seq =
  let rec loop acc = function
    | [] -> List.rev acc
    | a :: rest -> (
        match acc with
        | (b, k) :: tl when Int.equal b a -> loop ((b, k + 1) :: tl) rest
        | _ -> loop ((a, 1) :: acc) rest)
  in
  loop [] seq
