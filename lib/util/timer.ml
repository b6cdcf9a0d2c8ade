(* Wall clock, not CPU clock: planning budgets and elapsed-time
   reporting use it because the satisfiability engine fans checks out
   over a domain pool, so CPU time accrues [jobs] times faster than wall
   time and would shrink budgets under parallelism. *)

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
