let name = "MRC"

let refuse (task : Task.t) =
  if task.Task.adds_layer then
    Some
      "migration introduces a new layer; the residual-capacity objective \
       is undefined on it"
  else if Task.affects_wiring task then
    Some
      "migration rewires circuits; residual capacity after a wiring change \
       is not a drain-order objective"
  else None

let plan ?(config = Planner.default_config) task =
  Search.run ~name ~refuse config task @@ fun s task ->
  let checker = Search.checker s in
  let n = Array.length task.Task.blocks in
  let remaining = Array.make n true in
  let order = ref [] in
  (* Greedy: try every remaining block, keep the feasible one with the
     largest minimum residual.  Residuals within 1e-9 tie and the first
     block wins: the incremental checker's float drift stays below that
     slack, so the choice does not depend on how loads are evaluated. *)
  try
    for _step = 1 to n do
      Search.poll s;
      let best = ref (-1) and best_residual = ref neg_infinity in
      for b = 0 to n - 1 do
        if remaining.(b) then begin
          Search.generate s;
          Constraint.apply_block checker b;
          let residual =
            Constraint.current_min_residual ~last_block:b checker
          in
          Constraint.unapply_block checker b;
          if residual > !best_residual +. 1e-9 then begin
            best_residual := residual;
            best := b
          end
        end
      done;
      (* A dead end: every remaining block violates a constraint. *)
      if !best < 0 || Float.equal !best_residual neg_infinity then raise Exit;
      Constraint.apply_block checker !best;
      remaining.(!best) <- false;
      order := !best :: !order;
      Search.expand s
    done;
    Planner.Found (Plan.make task (List.rev !order))
  with Exit -> Planner.Infeasible
