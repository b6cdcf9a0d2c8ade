type planner_kind = Astar | Dp | Mrc | Janus | Exhaustive | Greedy

let planner_name = function
  | Astar -> Astar.name
  | Dp -> Dp.name
  | Mrc -> Mrc.name
  | Janus -> Janus.name
  | Exhaustive -> Exhaustive.name
  | Greedy -> Greedy.name

let plan ?(planner = Astar) ?config task =
  match planner with
  | Astar -> Astar.plan ?config task
  | Dp -> Dp.plan ?config task
  | Mrc -> Mrc.plan ?config task
  | Janus -> Janus.plan ?config task
  | Exhaustive -> Exhaustive.plan ?config task
  | Greedy -> Greedy.plan ?config task

type phase = {
  index : int;
  action : Action.t;
  block_labels : string list;
  switches_touched : int;
  circuits_touched : int;
  state : Compact.t;
}

let phases (task : Task.t) (p : Plan.t) =
  let blocks = Array.of_list p.Plan.blocks in
  let v = ref (Compact.origin task.Task.actions) in
  let step = ref 0 in
  List.mapi
    (fun i (a, k) ->
      let members =
        List.init k (fun j -> task.Task.blocks.(blocks.(!step + j)))
      in
      step := !step + k;
      List.iter (fun (_ : Blocks.t) -> v := Compact.succ !v a) members;
      {
        index = i + 1;
        action = Action.Set.get task.Task.actions a;
        block_labels = List.map (fun (b : Blocks.t) -> b.Blocks.label) members;
        switches_touched =
          List.fold_left
            (fun acc (b : Blocks.t) -> acc + Array.length b.Blocks.switches)
            0 members;
        circuits_touched =
          List.fold_left
            (fun acc (b : Blocks.t) -> acc + Array.length b.Blocks.circuits)
            0 members;
        state = !v;
      })
    p.Plan.runs

let pp_phase fmt ph =
  Format.fprintf fmt "phase %d: %s x%d (%d switches, %d circuits) -> %a"
    ph.index (Action.to_string ph.action)
    (List.length ph.block_labels)
    ph.switches_touched ph.circuits_touched Kutil.Vec_key.pp ph.state

let remainder_task (task : Task.t) ~executed =
  let n = Array.length task.Task.blocks in
  let done_flags = Array.make n false in
  List.iter
    (fun b ->
      if b < 0 || b >= n then invalid_arg "Klotski.remainder_task: bad block id";
      if done_flags.(b) then
        invalid_arg "Klotski.remainder_task: block executed twice";
      done_flags.(b) <- true)
    executed;
  (* Advance a copy of the universe to the reached state. *)
  let topo = Topo.copy task.Task.topo in
  List.iter
    (fun b ->
      let block = task.Task.blocks.(b) in
      match Action.applies block.Blocks.action with
      | Action.Set_activity active ->
          Array.iter
            (fun s -> Topo.set_switch_active topo s active)
            block.Blocks.switches;
          Array.iter
            (fun c -> Topo.set_circuit_active topo c active)
            block.Blocks.circuits
      | Action.Set_wiring target ->
          Array.iter
            (fun c -> Topo.set_circuit_hi topo c target)
            block.Blocks.circuits)
    executed;
  (* Re-index the remaining blocks, preserving canonical per-type order. *)
  let mapping =
    Array.of_list
      (List.filter
         (fun b -> not done_flags.(b))
         (Array.to_list (Array.concat (Array.to_list task.Task.blocks_by_type))))
  in
  let blocks =
    Array.mapi (fun i b -> { task.Task.blocks.(b) with Blocks.id = i }) mapping
  in
  (* Each kept block carries its dependency row: the row depends on the
     block's elements and the compiled classes, neither of which the
     re-indexing or the reached state changes. *)
  let deps = Array.map (fun b -> task.Task.deps.(b)) mapping in
  ({ (Task.with_blocks task blocks ~deps) with Task.topo }, mapping)

let replan ?planner ?config (task : Task.t) ~executed ~demand_scales =
  let task' = Task.scale_demands task demand_scales in
  let task', mapping = remainder_task task' ~executed in
  (plan ?planner ?config task', task', mapping)
