module Budget = Kutil.Timer.Budget

type t = {
  config : Planner.config;
  task : Task.t;
  budget : Budget.t;
  mutable engine : Sat_engine.t option;
  mutable checker : Constraint.t option;
  mutable expanded : int;
  mutable generated : int;
}

exception Expired

let engine s =
  match s.engine with
  | Some e -> e
  | None ->
      let c = s.config in
      let e =
        Sat_engine.create ~jobs:c.Planner.jobs ~use_cache:c.Planner.use_cache
          ~incremental:c.Planner.incremental s.task
      in
      s.engine <- Some e;
      e

let checker s =
  match s.checker with
  | Some ck -> ck
  | None ->
      let ck =
        Constraint.create ~incremental:s.config.Planner.incremental s.task
      in
      s.checker <- Some ck;
      ck

let poll s = if Budget.expired s.budget then raise Expired
let expand ?(n = 1) s = s.expanded <- s.expanded + n
let generate ?(n = 1) s = s.generated <- s.generated + n

let succ s v a =
  {
    Sat_engine.last_type = Some a;
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
    { config; task; budget; engine = None; checker = None; expanded = 0;
      generated = 0 }
  in
  let result outcome =
    let checks, hits, check_seconds =
      match s.engine with
      | None -> (0, 0, 0.0)
      | Some e ->
          ( Sat_engine.checks_performed e,
            Sat_engine.cache_hits e,
            Sat_engine.check_seconds e )
    in
    let bare = Option.fold ~none:0 ~some:Constraint.checks_performed s.checker in
    {
      Planner.planner = name;
      outcome;
      stats =
        {
          Planner.expanded = s.expanded;
          generated = s.generated;
          sat_checks = checks + bare;
          cache_hits = hits;
          check_seconds;
          elapsed = Kutil.Timer.now () -. started;
        };
    }
  in
  match refuse task with
  | Some why -> result (Planner.Unsupported why)
  | None ->
      (* The result is built after the engine's domains are joined, so
         [elapsed] covers the teardown a caller waits for. *)
      result
        (Fun.protect
           ~finally:(fun () -> Option.iter Sat_engine.shutdown s.engine)
           (fun () -> try policy s task with Expired -> Planner.Timeout None))
