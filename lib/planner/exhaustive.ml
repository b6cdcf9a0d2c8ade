let name = "Klotski w/o A*"

let plan ?(config = Planner.default_config) ?(bound = `Cost_only) task =
  Search.run ~name config task @@ fun s task ->
  let prune, heuristic_bound =
    match bound with
    | `None -> (false, false)
    | `Cost_only -> (true, false)
    | `Heuristic -> (true, true)
  in
  let n_types = Action.Set.cardinal task.Task.actions in
  let counts = task.Task.counts in
  let alpha = task.Task.alpha in
  let weights = task.Task.type_weights in
  let total = Array.fold_left ( + ) 0 counts in
  let v = Compact.origin task.Task.actions in
  let seq = Array.make total (-1) in
  let best_cost = ref infinity in
  let best_seq = ref None in
  let remaining = Array.copy counts in
  (* Depth-first over type sequences; blocks are consumed in canonical
     per-type order so a sequence of types determines the plan.  Each
     sibling is checked inline, after the pruning bound, so no check is
     spent on a branch the bound cuts. *)
  let rec dfs depth last g =
    Search.poll s;
    Search.expand s;
    if depth = total then begin
      if g < !best_cost then begin
        best_cost := g;
        best_seq := Some (Array.to_list seq)
      end
    end
    else begin
      for a = 0 to n_types - 1 do
        if remaining.(a) > 0 then begin
          let lower_bound =
            if not prune then neg_infinity
            else if heuristic_bound then
              g
              +. Cost.step ~alpha ?weights ~last a
              +. (let r = remaining.(a) in
                  remaining.(a) <- r - 1;
                  let h =
                    Cost.heuristic_with_last ~alpha ?weights ~last:(Some a) remaining
                  in
                  remaining.(a) <- r;
                  h)
            else
              (* Uninformed: only the cost already paid bounds the branch. *)
              g +. Cost.step ~alpha ?weights ~last a
          in
          if lower_bound < !best_cost -. 1e-12 || not prune then begin
            let block = task.Task.blocks_by_type.(a).(v.(a)) in
            v.(a) <- v.(a) + 1;
            Search.generate s;
            if
              Search.check s
                { Search.last_type = Some a; last_block = Some block; v }
            then begin
              seq.(depth) <- a;
              remaining.(a) <- remaining.(a) - 1;
              let g' = g +. Cost.step ~alpha ?weights ~last a in
              dfs (depth + 1) (Some a) g';
              remaining.(a) <- remaining.(a) + 1
            end;
            v.(a) <- v.(a) - 1
          end
        end
      done
    end
  in
  let best () = Option.map (Search.plan_of_types s) !best_seq in
  match dfs 0 None 0.0 with
  | () -> (
      match best () with Some p -> Planner.Found p | None -> Planner.Infeasible)
  | exception Search.Expired -> Planner.Timeout (best ())
