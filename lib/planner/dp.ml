module Vec_key = Kutil.Vec_key

let name = "Klotski-DP"

(* Per lattice point V we store an array over last-action types:
   g.(a) = best cost reaching V ending with type a, and the predecessor
   last type for reconstruction (Algorithm 1's auxiliary array). *)
type cell = { g : float array; prev : int array }

let plan ?(config = Planner.default_config) task =
  Search.run ~name config task @@ fun s task ->
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
  (* Forward propagation, layer by layer (ascending Σv, Eq. 7/8):
     frontier cells in layer order, successor types ascending within a
     cell.  Every (V', last type) pair of a layer is distinct, but
     without funneling the cache key leaves out the last type, so a
     state V' reached by two types is checked once and its second
     arrival is a cache hit. *)
  for t = 0 to total - 1 do
    List.iter
      (fun v ->
        let cell = Vec_key.Table.find cells v in
        Search.expand s;
        for a = 0 to n_types - 1 do
          if v.(a) < counts.(a) then begin
            Search.poll s;
            let c = Search.succ s v a in
            Search.generate s;
            if Search.check s c then begin
              let v' = c.Search.v in
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
          end
        done)
      layers.(t)
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
