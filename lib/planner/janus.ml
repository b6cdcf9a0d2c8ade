module Vec_key = Kutil.Vec_key

let name = "Janus"

let skey v last =
  let n = Array.length v in
  let k = Array.make (n + 1) 0 in
  Array.blit v 0 k 0 n;
  k.(n) <- last + 1;
  k

type entry = { g : float; v : Compact.t; last : int }

let entry_compare a b = Float.compare a.g b.g

let refuse (task : Task.t) =
  let why = "Janus assumes the symmetry structure survives the migration; " in
  if task.Task.adds_layer then
    Some (why ^ "introducing a new layer (DMAG) breaks it")
  else if Task.affects_wiring task then
    Some (why ^ "rewiring circuits (OCS) changes it mid-flight")
  else None

let plan ?(config = Planner.default_config) task =
  Search.run ~name ~refuse config task @@ fun s task ->
  let checker = Search.checker s in
  let n_types = Action.Set.cardinal task.Task.actions in
  let counts = task.Task.counts in
  let alpha = task.Task.alpha in
  let weights = task.Task.type_weights in
  (* Preprocessing: probe every per-type action-count combination. *)
  for a = 0 to n_types - 1 do
    let v = Compact.origin task.Task.actions in
    for k = 1 to counts.(a) do
      v.(a) <- k;
      Search.generate s;
      ignore (Constraint.check checker v)
    done
  done;
  let open_heap = Kutil.Heap.create ~compare:entry_compare in
  let best_g = Vec_key.Table.create 1024 in
  let closed = Vec_key.Table.create 1024 in
  let parent = Vec_key.Table.create 1024 in
  let v0 = Compact.origin task.Task.actions in
  Vec_key.Table.replace best_g (skey v0 (-1)) 0.0;
  Kutil.Heap.push open_heap { g = 0.0; v = v0; last = -1 };
  let best_target = ref None in
  let traverse () =
    while not (Kutil.Heap.is_empty open_heap) do
      Search.poll s;
      let e = Kutil.Heap.pop_exn open_heap in
      let key = skey e.v e.last in
      let stale =
        match Vec_key.Table.find_opt best_g key with
        | Some g -> e.g > g +. 1e-12
        | None -> true
      in
      if not (stale || Vec_key.Table.mem closed key) then begin
        Vec_key.Table.replace closed key ();
        Search.expand s;
        if Compact.is_target e.v ~counts then begin
          (match !best_target with
          | Some (g, _, _) when g <= e.g -> ()
          | _ -> best_target := Some (e.g, Vec_key.copy e.v, e.last))
          (* No early exit: Janus keeps traversing. *)
        end
        else
          for a = 0 to n_types - 1 do
            if e.v.(a) < counts.(a) then begin
              let v' = Compact.succ e.v a in
              Search.generate s;
              (* No equivalence cache: a full check per generation. *)
              if Constraint.check checker v' then begin
                let g' =
                  e.g
                  +. Cost.step ~alpha ?weights
                       ~last:(if e.last >= 0 then Some e.last else None)
                       a
                in
                let key' = skey v' a in
                let better =
                  match Vec_key.Table.find_opt best_g key' with
                  | Some g -> g' < g -. 1e-12
                  | None -> true
                in
                if better then begin
                  Vec_key.Table.replace best_g key' g';
                  Vec_key.Table.replace parent key' e.last;
                  Kutil.Heap.push open_heap { g = g'; v = v'; last = a }
                end
              end
            end
          done
      end
    done
  in
  (* Walk the parent pointers back from the best target to the origin. *)
  let best () =
    let rec walk v last acc =
      if last < 0 then acc
      else
        let prev_last = Vec_key.Table.find parent (skey v last) in
        walk (Compact.pred v last) prev_last (last :: acc)
    in
    Option.map
      (fun (_, v, last) -> Search.plan_of_types s (walk v last []))
      !best_target
  in
  match traverse () with
  | () -> (
      match best () with Some p -> Planner.Found p | None -> Planner.Infeasible)
  | exception Search.Expired -> Planner.Timeout (best ())
