let name = "Guided greedy"

let plan ?(config = Planner.default_config) task =
  Search.run ~name config task @@ fun s task ->
  let engine = Search.engine s in
  let n_types = Action.Set.cardinal task.Task.actions in
  let counts = task.Task.counts in
  let alpha = task.Task.alpha in
  let weights = task.Task.type_weights in
  let total = Array.fold_left ( + ) 0 counts in
  let v = Compact.origin task.Task.actions in
  let remaining = Array.copy counts in
  let rev_types = ref [] in
  let last = ref None in
  let cand_types = Array.make n_types 0 in
  let cand_sat = Array.make n_types
      { Sat_engine.last_type = None; last_block = None; v = [||] } in
  try
    for _step = 1 to total do
      Search.poll s;
      (* Score every feasible successor: marginal cost plus the bound on
         the rest; commit to the best without backtracking.  All
         successors of a step are checked as one batch. *)
      let n_cands = ref 0 in
      for a = 0 to n_types - 1 do
        if v.(a) < counts.(a) then begin
          Search.generate s;
          cand_types.(!n_cands) <- a;
          cand_sat.(!n_cands) <- Search.succ s v a;
          incr n_cands
        end
      done;
      let oks = Sat_engine.check_batch engine (Array.sub cand_sat 0 !n_cands) in
      let best = ref (-1) and best_score = ref infinity in
      for i = 0 to !n_cands - 1 do
        if oks.(i) then begin
          let a = cand_types.(i) in
          remaining.(a) <- remaining.(a) - 1;
          let score =
            Cost.step ~alpha ?weights ~last:!last a
            +. Cost.heuristic_with_last ~alpha ?weights ~last:(Some a)
                 remaining
          in
          remaining.(a) <- remaining.(a) + 1;
          if score < !best_score then begin
            best_score := score;
            best := a
          end
        end
      done;
      (* A dead end: no feasible successor, and no backtracking. *)
      if !best < 0 then raise Exit;
      let a = !best in
      v.(a) <- v.(a) + 1;
      remaining.(a) <- remaining.(a) - 1;
      rev_types := a :: !rev_types;
      last := Some a;
      Search.expand s
    done;
    Planner.Found (Search.plan_of_types s (List.rev !rev_types))
  with Exit -> Planner.Infeasible
