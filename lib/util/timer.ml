(* Wall clock, not CPU clock: budgets and elapsed-time reporting
   measure what the caller waits for, and a caller that runs the
   library on several domains accrues CPU time faster than wall time. *)

let now () = Unix.gettimeofday ()

let time f =
  let start = now () in
  let result = f () in
  (result, now () -. start)

module Budget = struct
  type t = { deadline : float option }

  let unlimited = { deadline = None }

  let of_seconds s =
    (* [not (s > 0.0)], not [s <= 0.0]: a NaN budget would never expire. *)
    if not (s > 0.0) then invalid_arg "Budget.of_seconds: non-positive budget";
    { deadline = Some (now () +. s) }

  let expired b =
    match b.deadline with None -> false | Some d -> now () > d
end
