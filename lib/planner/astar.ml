module Vec_key = Kutil.Vec_key

let name = "Klotski-A*"

(* Search states are (V, last action type); the hashtable key is V with
   last + 1 appended (0 = no action yet).  The hot paths fill a reusable
   scratch key and only allocate when a key is actually inserted into a
   table. *)
let skey_into k v last =
  let n = Array.length v in
  Array.blit v 0 k 0 n;
  k.(n) <- last + 1;
  k

let skey v last = skey_into (Array.make (Array.length v + 1) 0) v last

type entry = {
  f : float;
  finished : int;  (* secondary priority: deeper states first *)
  g : float;
  v : Compact.t;
  last : int;  (* -1 before the first action *)
  rev_types : int list;  (* the operated type sequence, newest first *)
  seq : int;  (* push order: the final tiebreaker, making the order total *)
}

(* A total order: [seq] is unique per entry, so no two entries ever
   compare equal and the pop sequence is a function of the entry set
   alone.  The pinned expansion orders depend on this tiebreak. *)
let entry_compare a b =
  let c = Float.compare a.f b.f in
  if c <> 0 then c
  else
    let c = Int.compare b.finished a.finished in
    if c <> 0 then c
    else
      let c = Float.compare a.g b.g in
      if c <> 0 then c else Int.compare a.seq b.seq

(* [dedup:false] removes the compact-representation state table entirely
   (the "w/o ESC" ablation together with [use_cache:false]): the search
   degenerates to best-first over the action-sequence tree, so equivalent
   states are re-generated and re-checked once per ordering. *)
let plan ?(config = Planner.default_config) ?(dedup = true) task =
  Search.run ~name config task @@ fun s task ->
  let n_types = Action.Set.cardinal task.Task.actions in
  let counts = task.Task.counts in
  let alpha = task.Task.alpha in
  let weights = task.Task.type_weights in
  let open_heap = Kutil.Heap.create ~compare:entry_compare in
  let best_g = Vec_key.Table.create 1024 in
  let closed = Vec_key.Table.create 1024 in
  let remaining_scratch = Array.make n_types 0 in
  let key_scratch = Array.make (n_types + 1) 0 in
  let seqno = ref 0 in
  let next_seq () =
    incr seqno;
    !seqno
  in
  let heuristic v last =
    for a = 0 to n_types - 1 do
      remaining_scratch.(a) <- counts.(a) - v.(a)
    done;
    Cost.heuristic_with_last ~alpha ?weights
      ~last:(if last >= 0 then Some last else None)
      remaining_scratch
  in
  let v0 = Compact.origin task.Task.actions in
  if dedup then Vec_key.Table.replace best_g (skey v0 (-1)) 0.0;
  Kutil.Heap.push open_heap
    {
      f = heuristic v0 (-1);
      finished = 0;
      g = 0.0;
      v = v0;
      last = -1;
      rev_types = [];
      seq = next_seq ();
    };
  (* An entry is dead once a cheaper route to its (V, last) key was found
     or the key was expanded: drop it at pop time. *)
  let is_stale e =
    let key = skey_into key_scratch e.v e.last in
    dedup
    && ((match Vec_key.Table.find_opt best_g key with
        | Some g -> e.g > g +. 1e-12
        | None -> true)
       || Vec_key.Table.mem closed key)
  in
  let rec pop_live () =
    match Kutil.Heap.pop open_heap with
    | Some e when is_stale e -> pop_live ()
    | top -> top
  in
  let rec search () =
    Search.poll s;
    match pop_live () with
    | None -> Planner.Infeasible
    | Some e when Compact.is_target e.v ~counts ->
        Planner.Found (Search.plan_of_types s (List.rev e.rev_types))
    | Some e ->
        if dedup then
          Vec_key.Table.replace closed
            (Vec_key.copy (skey_into key_scratch e.v e.last))
            ();
        Search.expand s;
        (* Successors in ascending type order, which fixes the [seq]
           order. *)
        for a = 0 to n_types - 1 do
          if e.v.(a) < counts.(a) then begin
            let c = Search.succ s e.v a in
            Search.generate s;
            if Search.check s c then begin
              let v' = c.Search.v in
              let g' =
                e.g
                +. Cost.step ~alpha ?weights
                     ~last:(if e.last >= 0 then Some e.last else None)
                     a
              in
              let key' = skey_into key_scratch v' a in
              let better =
                (not dedup)
                ||
                match Vec_key.Table.find_opt best_g key' with
                | Some g -> g' < g -. 1e-12
                | None -> true
              in
              if better then begin
                if dedup then
                  Vec_key.Table.replace best_g (Vec_key.copy key') g';
                Kutil.Heap.push open_heap
                  {
                    f = g' +. heuristic v' a;
                    finished = Compact.finished v';
                    g = g';
                    v = v';
                    last = a;
                    rev_types = a :: e.rev_types;
                    seq = next_seq ();
                  }
              end
            end
          end
        done;
        search ()
  in
  search ()
