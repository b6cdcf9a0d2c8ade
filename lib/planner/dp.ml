module Vec_key = Kutil.Vec_key

let name = "Klotski-DP"

(* Per lattice point V we store an array over last-action types:
   g.(a) = best cost reaching V ending with type a, and the predecessor
   last type for reconstruction (Algorithm 1's auxiliary array). *)
type cell = { g : float array; prev : int array }

let plan ?(config = Planner.default_config) task =
  Search.run ~name config task @@ fun s task ->
  let engine = Search.engine s in
  let n_types = Action.Set.cardinal task.Task.actions in
  let counts = task.Task.counts in
  let alpha = task.Task.alpha in
  let weights = task.Task.type_weights in
  let total = Array.fold_left ( + ) 0 counts in
  let cells = Vec_key.Table.create 1024 in
  let layers = Array.make (total + 1) [] in
  let v0 = Compact.origin task.Task.actions in
  let origin_cell =
    { g = Array.make (n_types + 1) infinity; prev = Array.make (n_types + 1) (-2) }
  in
  (* Index n_types in the per-cell arrays stands for "no action yet". *)
  origin_cell.g.(n_types) <- 0.0;
  Vec_key.Table.replace cells v0 origin_cell;
  layers.(0) <- [ v0 ];
  (* Forward propagation, layer by layer (ascending Σv, Eq. 7/8).  The
     whole layer frontier is satisfiability-checked as one batch.  Every
     (V', last type) pair of a layer is distinct, but without funneling
     the cache key leaves out the last type, so a state V' reached by two
     types is one key twice; [Sat_engine.check_batch] evaluates it once
     and answers the repeat from the cache, at every job count.  The wave
     is gathered into counted flat arrays (one predecessor-cell lookup
     per frontier cell, no interim lists) so the per-layer cost is the
     checks, not the plumbing around them. *)
  let dummy_cand =
    { Sat_engine.last_type = None; last_block = None; v = [||] }
  in
  for t = 0 to total - 1 do
    Search.poll s;
    let frontier = Array.of_list layers.(t) in
    let n_front = Array.length frontier in
    (* Candidates in the sequential visiting order: frontier cells in
       layer order, successor types ascending within a cell. *)
    let cand_sat = Array.make (max 1 (n_front * n_types)) dummy_cand in
    let cand_type = Array.make (max 1 (n_front * n_types)) 0 in
    let cand_cell = Array.make (max 1 (n_front * n_types)) origin_cell in
    let nc = ref 0 in
    Array.iter
      (fun v ->
        let cell = Vec_key.Table.find cells v in
        for a = 0 to n_types - 1 do
          if v.(a) < counts.(a) then begin
            cand_type.(!nc) <- a;
            cand_cell.(!nc) <- cell;
            cand_sat.(!nc) <- Search.succ s v a;
            incr nc
          end
        done)
      frontier;
    let nc = !nc in
    Search.generate ~n:nc s;
    let oks = Sat_engine.check_batch engine (Array.sub cand_sat 0 nc) in
    Search.expand ~n:n_front s;
    for i = 0 to nc - 1 do
      Search.poll s;
      if oks.(i) then begin
        let cell = cand_cell.(i) in
        let a = cand_type.(i) in
        let v' = cand_sat.(i).Sat_engine.v in
        let cell' =
          match Vec_key.Table.find_opt cells v' with
          | Some c -> c
          | None ->
              let c =
                {
                  g = Array.make (n_types + 1) infinity;
                  prev = Array.make (n_types + 1) (-2);
                }
              in
              Vec_key.Table.replace cells v' c;
              layers.(t + 1) <- v' :: layers.(t + 1);
              c
        in
        (* Relax from every finite last type of the predecessor. *)
        for l = 0 to n_types do
          if cell.g.(l) < infinity then begin
            let last = if l = n_types then None else Some l in
            let g' = cell.g.(l) +. Cost.step ~alpha ?weights ~last a in
            if g' < cell'.g.(a) -. 1e-12 then begin
              cell'.g.(a) <- g';
              cell'.prev.(a) <- l
            end
          end
        done
      end
    done
  done;
  match Vec_key.Table.find_opt cells counts with
  | None -> Planner.Infeasible
  | Some cell ->
      let best_last = ref (-1) and best = ref infinity in
      for a = 0 to n_types - 1 do
        if cell.g.(a) < !best then begin
          best := cell.g.(a);
          best_last := a
        end
      done;
      if !best_last < 0 then Planner.Infeasible
      else begin
        (* Rebuild backwards through the auxiliary array (GetAnswer). *)
        let rec walk v last acc =
          if last = n_types then acc
          else
            let cell = Vec_key.Table.find cells v in
            walk (Compact.pred v last) cell.prev.(last) (last :: acc)
        in
        Planner.Found (Search.plan_of_types s (walk counts !best_last []))
      end
