(* The parallel satisfiability engine: a domain pool, one private
   [Constraint.t] checker per worker, and one shared locked [Cache.t].

   Checkers are the natural per-worker unit: each owns its own topology
   copy, ECMP scratch and funneling memo, so workers never contend on
   mutable planning state.  Worker 0 is the calling domain; its checker is
   created eagerly, the others lazily inside their own domain on first
   use.  With one worker every batch runs inline, in item order, through
   exactly the same cache protocol as the historical sequential planners —
   bit-identical outcomes, counters and costs.  Workers beyond the core
   count would only time-slice, so the requested count is capped there. *)

type candidate = {
  last_type : int option;
  last_block : int option;
  v : Compact.t;
}

type t = {
  task : Task.t;
  pool : Kutil.Domain_pool.t;
  checkers : Constraint.t option array;  (* slot [w] touched only by worker [w] *)
  counted : int Atomic.t array;
      (* per-worker check counts, published by the owning worker after
         every candidate: unlike the checkers themselves, these may be
         read from domain 0 at any time (stats mid-flight), so the
         cross-domain read needs the atomic's happens-before edge *)
  cache : Cache.t;
  incremental : bool;
  mutable check_seconds : float;
}

let create ?(jobs = 1) ?(use_cache = true) ?(incremental = true)
    (task : Task.t) =
  if jobs < 1 then invalid_arg "Sat_engine.create: jobs must be >= 1";
  let jobs = min jobs (Domain.recommended_domain_count ()) in
  let checkers = Array.make jobs None in
  checkers.(0) <- Some (Constraint.create ~incremental task);
  {
    task;
    pool = Kutil.Domain_pool.create ~jobs;
    checkers;
    counted = Array.init jobs (fun _ -> Atomic.make 0);
    cache = Cache.create ~enabled:use_cache task;
    incremental;
    check_seconds = 0.0;
  }

let jobs e = Kutil.Domain_pool.size e.pool
let incremental e = e.incremental

let checker e wid =
  match e.checkers.(wid) with
  | Some ck -> ck
  | None ->
      let ck = Constraint.create ~incremental:e.incremental e.task in
      e.checkers.(wid) <- Some ck;
      ck

let check_candidate e wid { last_type; last_block; v } =
  let ck = checker e wid in
  let r = Cache.check e.cache ck ?last_type ?last_block v in
  Atomic.set e.counted.(wid) (Constraint.checks_performed ck);
  r

let check e ?last_type ?last_block v =
  let started = Kutil.Timer.now () in
  let r = check_candidate e 0 { last_type; last_block; v } in
  e.check_seconds <- e.check_seconds +. (Kutil.Timer.now () -. started);
  r

(* A key may repeat within a batch: without funneling the key leaves out
   the last action type, so a DP layer that reaches one state by two
   types asks for it twice.  The pool gets each key once; the repeats are
   asked after the map, on the calling domain, where their key is cached
   — a hit, as when the batch is checked in order at one worker — so the
   checks and hits never depend on the job count. *)
let check_batch e candidates =
  let started = Kutil.Timer.now () in
  let seen = Kutil.Vec_key.Table.create (Array.length candidates) in
  let repeat =
    Array.map
      (fun c ->
        let key = Cache.key_of e.cache ?last_type:c.last_type c.v in
        Kutil.Vec_key.Table.mem seen key
        || (Kutil.Vec_key.Table.replace seen key ();
            false))
      candidates
  in
  let r =
    Kutil.Domain_pool.map e.pool
      ~worker:(fun wid i ->
        (not repeat.(i)) && check_candidate e wid candidates.(i))
      (Array.init (Array.length candidates) Fun.id)
  in
  Array.iteri
    (fun i rep -> if rep then r.(i) <- check_candidate e 0 candidates.(i))
    repeat;
  e.check_seconds <- e.check_seconds +. (Kutil.Timer.now () -. started);
  r

let checks_performed e =
  Array.fold_left (fun acc c -> acc + Atomic.get c) 0 e.counted

let cache_hits e = Cache.hits e.cache
let cache_misses e = Cache.misses e.cache
let check_seconds e = e.check_seconds

let shutdown e = Kutil.Domain_pool.shutdown e.pool
