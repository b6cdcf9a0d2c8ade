(* A fixed pool of worker domains with a batch-map interface.

   The caller participates as worker 0, so a pool of [jobs = 1] spawns no
   domains and [map] degenerates to [Array.map] — the sequential path pays
   no synchronization.  Batches are dispatched by bumping an epoch under
   the pool mutex; workers claim chunks of item indices from a shared
   atomic cursor, so results land at the index of their item
   (deterministic order) while the schedule itself is free to balance
   load.  Every batch of two or more items is dispatched.  Worker domains
   are spawned on the first such batch, so a pool that only ever maps
   single items costs nothing beyond the record. *)

type t = {
  size : int;
  mutable job : (int -> unit) option;  (* protected by [m] *)
  mutable batch_failed : exn option Atomic.t;  (* protected by [m] *)
  mutable epoch : int;
  mutable busy : int;  (* spawned workers still running the current epoch *)
  mutable stop : bool;
  m : Mutex.t;
  work_cv : Condition.t;  (* workers: a new epoch (or stop) is available *)
  done_cv : Condition.t;  (* caller: busy dropped to zero *)
  mutable domains : unit Domain.t array;  (* empty until first dispatch *)
}

let size pool = pool.size

let worker_loop pool wid =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock pool.m;
    while (not pool.stop) && pool.epoch = !seen do
      Condition.wait pool.work_cv pool.m
    done;
    if pool.stop then Mutex.unlock pool.m
    else begin
      seen := pool.epoch;
      let f = Option.get pool.job in
      let failed = pool.batch_failed in
      Mutex.unlock pool.m;
      (* [f] is the map body below; it traps item exceptions itself.  A
         worker must never die and wedge the done handshake, but an
         exception escaping [f] is a harness bug the caller has to see:
         publish it into the batch's failure slot instead of dropping it
         on the floor. *)
      (try f wid
       with e -> ignore (Atomic.compare_and_set failed None (Some e)));
      Mutex.lock pool.m;
      pool.busy <- pool.busy - 1;
      if pool.busy = 0 then Condition.broadcast pool.done_cv;
      Mutex.unlock pool.m;
      loop ()
    end
  in
  loop ()

(* Dispatch [body] to the spawned workers and run it on the caller too;
   returns once every worker has finished the epoch.  Must be called
   with [pool.batch_failed] set. *)
let run_epoch pool body =
  if Array.length pool.domains = 0 then
    pool.domains <-
      Array.init (pool.size - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop pool (i + 1)));
  Mutex.lock pool.m;
  pool.job <- Some body;
  pool.busy <- pool.size - 1;
  pool.epoch <- pool.epoch + 1;
  Condition.broadcast pool.work_cv;
  Mutex.unlock pool.m;
  body 0;
  Mutex.lock pool.m;
  while pool.busy > 0 do
    Condition.wait pool.done_cv pool.m
  done;
  pool.job <- None;
  Mutex.unlock pool.m

let create ~jobs =
  if jobs < 1 then invalid_arg "Domain_pool.create: jobs must be >= 1";
  {
    size = jobs;
    job = None;
    batch_failed = Atomic.make None;
    epoch = 0;
    busy = 0;
    stop = false;
    m = Mutex.create ();
    work_cv = Condition.create ();
    done_cv = Condition.create ();
    domains = [||];
  }

let map pool ~worker items =
  if pool.stop then invalid_arg "Domain_pool.map: pool is shut down";
  let n = Array.length items in
  if pool.size = 1 || n <= 1 then Array.map (fun x -> worker 0 x) items
  else begin
    let results = Array.make n None in
    let cursor = Atomic.make 0 in
    let failed = Atomic.make None in
    (* Workers claim short runs of items rather than one index per
       fetch-and-add: fewer contended RMWs, and each worker walks a
       contiguous slice of the results array.  ~4 chunks per worker keeps
       dynamic balancing for uneven item costs. *)
    let chunk = max 1 (n / (pool.size * 4)) in
    let body wid =
      let rec grab () =
        let start = Atomic.fetch_and_add cursor chunk in
        if start < n then begin
          let stop_ = min n (start + chunk) in
          (match Atomic.get failed with
          | Some _ -> ()  (* drain the remaining chunks without working *)
          | None ->
              (try
                 for i = start to stop_ - 1 do
                   results.(i) <- Some (worker wid items.(i))
                 done
               with e -> ignore (Atomic.compare_and_set failed None (Some e))));
          grab ()
        end
      in
      grab ()
    in
    pool.batch_failed <- failed;
    run_epoch pool body;
    match Atomic.get failed with
    | Some e -> raise e
    | None ->
        Array.map (function Some r -> r | None -> assert false) results
  end

let shutdown pool =
  Mutex.lock pool.m;
  if pool.stop then Mutex.unlock pool.m
  else begin
    pool.stop <- true;
    Condition.broadcast pool.work_cv;
    Mutex.unlock pool.m;
    Array.iter Domain.join pool.domains;
    pool.domains <- [||]
  end

let recommended_jobs () = Domain.recommended_domain_count ()
