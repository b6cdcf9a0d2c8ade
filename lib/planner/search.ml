module Budget = Kutil.Timer.Budget

type candidate = {
  last_type : int option;
  last_block : int option;
  v : Compact.t;
}

type t = {
  config : Planner.config;
  task : Task.t;
  budget : Budget.t;
  cache : Cache.t;
  mutable checker : Constraint.t option;
  mutable check_seconds : float;
  mutable expanded : int;
  mutable generated : int;
}

exception Expired

let checker s =
  match s.checker with
  | Some ck -> ck
  | None ->
      let ck =
        Constraint.create ~incremental:s.config.Planner.incremental s.task
      in
      s.checker <- Some ck;
      ck

(* The checker is built before the clock starts: [check_seconds] meters
   checks, not the checker's construction. *)
let check s { last_type; last_block; v } =
  let ck = checker s in
  let started = Kutil.Timer.now () in
  let r = Cache.check s.cache ck ?last_type ?last_block v in
  s.check_seconds <- s.check_seconds +. (Kutil.Timer.now () -. started);
  r

let poll s = if Budget.expired s.budget then raise Expired
let expand s = s.expanded <- s.expanded + 1
let generate s = s.generated <- s.generated + 1

let succ s v a =
  {
    last_type = Some a;
    last_block = Some s.task.Task.blocks_by_type.(a).(v.(a));
    v = Compact.succ v a;
  }

(* Blocks are consumed in canonical per-type order, so the k-th step of
   type a operates blocks_by_type.(a).(k). *)
let plan_of_types s types =
  let next = Array.make (Array.length s.task.Task.counts) 0 in
  let take acc a =
    let b = s.task.Task.blocks_by_type.(a).(next.(a)) in
    next.(a) <- next.(a) + 1;
    b :: acc
  in
  Plan.make s.task (List.rev (List.fold_left take [] types))

let run ~name ?(refuse = fun _ -> None) config task policy =
  let task = Planner.robust_task config task in
  let budget =
    match config.Planner.budget_seconds with
    | None -> Budget.unlimited
    | Some seconds -> Budget.of_seconds seconds
  in
  let started = Kutil.Timer.now () in
  let s =
    {
      config;
      task;
      budget;
      cache = Cache.create ~enabled:config.Planner.use_cache task;
      checker = None;
      check_seconds = 0.0;
      expanded = 0;
      generated = 0;
    }
  in
  let result outcome =
    {
      Planner.planner = name;
      outcome;
      stats =
        {
          Planner.expanded = s.expanded;
          generated = s.generated;
          sat_checks =
            Option.fold ~none:0 ~some:Constraint.checks_performed s.checker;
          cache_hits = Cache.hits s.cache;
          check_seconds = s.check_seconds;
          elapsed = Kutil.Timer.now () -. started;
        };
    }
  in
  match refuse task with
  | Some why -> result (Planner.Unsupported why)
  | None -> result (try policy s task with Expired -> Planner.Timeout None)
