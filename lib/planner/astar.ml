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
   compare equal.  That makes the heap's pop sequence a function of the
   entry *set* alone — independent of the push/pop interleaving — which
   is what lets speculative frontier batching (below) replay the exact
   sequential expansion order at any job count. *)
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
let plan ?(config = Planner.default_config) ?(dedup = true) ?spec_width
    task =
  Search.run ~name config task @@ fun s task ->
  let engine = Search.engine s in
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
     or the key was expanded; the sequential loop drops such entries at
     pop time, and staleness is monotone (closed only grows, best_g only
     improves), so the test can safely run early or late. *)
  let is_stale e =
    let key = skey_into key_scratch e.v e.last in
    dedup
    && ((match Vec_key.Table.find_opt best_g key with
        | Some g -> e.g > g +. 1e-12
        | None -> true)
       || Vec_key.Table.mem closed key)
  in
  (* Speculative frontier batching.  One round pops the top [spec_width]
     live entries, generates all their successors, checks them in a
     single engine batch (big enough to fan out over the pool), then
     commits entry by entry in the canonical order.  A commit replays
     exactly what the sequential loop would do at that pop; before each
     one we verify the entry is still what the sequential loop would pop
     next — if an earlier commit pushed something smaller, the remaining
     popped entries go back on the heap (their check results stay in the
     satisfiability cache, so nothing is recomputed when they return).
     Together with the total entry order this makes plans, costs and the
     expanded/generated counters bit-identical to jobs=1; the pure
     per-round waste is checks of successors the sequential order never
     needed, which stay in the cache.  With jobs=1 the width is 1 and a
     round *is* the historical sequential iteration, cache counters
     included.

     The default width is gated on the machine's actual parallelism, not
     just the requested job count: wasted speculative checks are free on
     idle cores but serialize into pure slowdown when the domains share
     one core, so without real hardware parallelism the round width stays
     1 (plain sequential batching).  [spec_width] overrides the choice —
     tests force wide rounds with it so the commit protocol is exercised
     on any machine. *)
  let spec_width =
    match spec_width with
    | Some w ->
        if w < 1 then invalid_arg "Astar.plan: spec_width must be >= 1";
        w
    | None ->
        let jobs = Sat_engine.jobs engine in
        let cores = Domain.recommended_domain_count () in
        if jobs > 1 && cores > 1 then 2 * min jobs cores else 1
  in
  let max_cands = spec_width * n_types in
  let dummy_entry =
    { f = 0.0; finished = 0; g = 0.0; v = [||]; last = -1; rev_types = [];
      seq = 0 }
  in
  let pend = Array.make spec_width dummy_entry in
  let cand_sat =
    Array.make max_cands
      { Sat_engine.last_type = None; last_block = None; v = [||] }
  in
  let cand_type = Array.make max_cands 0 in
  let cand_off = Array.make (spec_width + 1) 0 in
  let rec search () =
    Search.poll s;
    (* Pop up to [spec_width] live entries, dropping stale ones exactly as
       the sequential loop does.  Stop early on a target entry: nothing
       past it can be committed this round. *)
    let n_pend = ref 0 in
    let popping = ref true in
    while !popping do
      match Kutil.Heap.pop open_heap with
      | None -> popping := false
      | Some e ->
          if is_stale e then ()
          else begin
            pend.(!n_pend) <- e;
            incr n_pend;
            if Compact.is_target e.v ~counts || !n_pend = spec_width then
              popping := false
          end
    done;
    let n_pend = !n_pend in
    if n_pend = 0 then Planner.Infeasible
    else begin
      (* Gather every pending entry's candidate successors and check them
         as one batch. *)
      let nc = ref 0 in
      for i = 0 to n_pend - 1 do
        cand_off.(i) <- !nc;
        let e = pend.(i) in
        if not (Compact.is_target e.v ~counts) then
          for a = 0 to n_types - 1 do
            if e.v.(a) < counts.(a) then begin
              cand_type.(!nc) <- a;
              cand_sat.(!nc) <- Search.succ s e.v a;
              incr nc
            end
          done
      done;
      cand_off.(n_pend) <- !nc;
      let oks = Sat_engine.check_batch engine (Array.sub cand_sat 0 !nc) in
      commit 0 n_pend oks
    end
  and commit i n_pend oks =
    if i >= n_pend then search ()
    else begin
      let e = pend.(i) in
      (* An earlier commit may have pushed an entry that now precedes
         [e]: then [e] is not the sequential loop's next pop.  Re-push
         the rest of the round and start over.  (At [i = 0] nothing was
         pushed yet and the pop phase already established both tests.) *)
      let displaced =
        i > 0
        &&
        match Kutil.Heap.peek open_heap with
        | Some top -> entry_compare top e < 0
        | None -> false
      in
      if displaced then begin
        for j = i to n_pend - 1 do
          Kutil.Heap.push open_heap pend.(j)
        done;
        search ()
      end
      else if i > 0 && is_stale e then commit (i + 1) n_pend oks
      else if Compact.is_target e.v ~counts then
        Planner.Found (Search.plan_of_types s (List.rev e.rev_types))
      else begin
        if dedup then
          Vec_key.Table.replace closed
            (Vec_key.copy (skey_into key_scratch e.v e.last))
            ();
        Search.expand s;
        (* Commit this expansion's verdicts in ascending type order — the
           same order the sequential loop used. *)
        for c = cand_off.(i) to cand_off.(i + 1) - 1 do
          Search.generate s;
          if oks.(c) then begin
            let a = cand_type.(c) in
            let v' = cand_sat.(c).Sat_engine.v in
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
        done;
        commit (i + 1) n_pend oks
      end
    end
  in
  search ()
