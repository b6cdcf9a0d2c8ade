module Table = Kutil.Vec_key.Table

(* One table and three counters, owned by one search: the planner
   checks its candidates one at a time, so nothing here is shared
   between domains. *)

type t = {
  enabled : bool;
  funneling : bool;
  ensemble_id : int option;  (* appended to keys when the task is robust *)
  task : Task.t;  (* for the compact-state -> overlay-word lowering *)
  table : bool Table.t;
  mutable hits : int;
  mutable misses : int;
  mutable bypassed : int;
}

let create ?(enabled = true) (task : Task.t) =
  {
    enabled;
    funneling = task.Task.funneling > 0.0;
    ensemble_id =
      (match task.Task.ensemble with
      | Some e when Ensemble.k e > 1 -> Some (Ensemble.id e)
      | _ -> None);
    task;
    table = Table.create 1024;
    hits = 0;
    misses = 0;
    bypassed = 0;
  }

(* Keys are the packed applied-block overlay words the compact vector
   lowers to (Task.blit_state_words): the cache hashes the words that
   actually describe the overlay instead of re-deriving per-type counts.
   The lowering is injective — distinct vectors denote distinct block
   sets — so hit/miss behavior is exactly that of keying on the vectors
   themselves.  With funneling, satisfiability also depends on which
   block was operated last; appending the last action type keeps entries
   sound (the block is determined by V and the type under canonical
   order).  A robust task's verdicts likewise depend on its ensemble;
   appending the ensemble's identity hash keeps distinct ensembles from
   aliasing.  Single-matrix tasks (no ensemble, or k = 1) append
   nothing, so their keys — and hit/miss counters — are exactly the
   historical ones. *)
let key_of cache ?last_type v =
  let w = cache.task.Task.state_word_count in
  let extra =
    (if cache.funneling then 1 else 0)
    + match cache.ensemble_id with Some _ -> 1 | None -> 0
  in
  let k = Array.make (w + extra) 0 in
  Task.blit_state_words cache.task v ~into:k;
  let i = ref w in
  if cache.funneling then begin
    k.(!i) <- (match last_type with Some a -> a + 1 | None -> 0);
    incr i
  end;
  (match cache.ensemble_id with
  | Some id -> k.(!i) <- id
  | None -> ());
  k

let check cache ck ?last_type ?last_block v =
  if not cache.enabled then begin
    (* Disabled cache ("w/o ESC"): the check is not a miss — counting it
       as one would give the ablation a nonzero miss count and a
       meaningless hit-rate denominator. *)
    cache.bypassed <- cache.bypassed + 1;
    Constraint.check ?last_block ck v
  end
  else begin
    let key = key_of cache ?last_type v in
    match Table.find_opt cache.table key with
    | Some result ->
        cache.hits <- cache.hits + 1;
        result
    | None ->
        cache.misses <- cache.misses + 1;
        let result = Constraint.check ?last_block ck v in
        (* [key] is freshly lowered per lookup, never aliased: store as
           is. *)
        Table.replace cache.table key result;
        result
  end

let hits c = c.hits
let misses c = c.misses
let bypassed c = c.bypassed
let size c = Table.length c.table
