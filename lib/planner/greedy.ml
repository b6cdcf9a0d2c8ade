let name = "Guided greedy"

let plan ?(config = Planner.default_config) task =
  Search.run ~name config task @@ fun s task ->
  let n_types = Action.Set.cardinal task.Task.actions in
  let counts = task.Task.counts in
  let alpha = task.Task.alpha in
  let weights = task.Task.type_weights in
  let total = Array.fold_left ( + ) 0 counts in
  let v = Compact.origin task.Task.actions in
  let remaining = Array.copy counts in
  let rev_types = ref [] in
  let last = ref None in
  try
    for _step = 1 to total do
      Search.poll s;
      (* Score every feasible successor: marginal cost plus the bound on
         the rest; commit to the best without backtracking. *)
      let best = ref (-1) and best_score = ref infinity in
      for a = 0 to n_types - 1 do
        if v.(a) < counts.(a) then begin
          Search.generate s;
          if Search.check s (Search.succ s v a) then begin
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
