(** Klotski: efficient and safe network migration planning.

    The public façade of the reproduction — an EDP-Lite-style pipeline
    (§5): topology and demands in, an ordered list of safe topology phases
    out, with replanning hooks for the deployment realities of §7
    (demand forecasts, simultaneous operations).

    Typical use:
    {[
      let scenario = Gen.scenario_of_label "B" in
      let task = Task.of_scenario scenario in
      match Klotski.plan task with
      | { outcome = Found plan; _ } ->
          List.iter print_phase (Klotski.phases task plan)
      | _ -> ...
    ]} *)

type planner_kind = Astar | Dp | Mrc | Janus | Exhaustive | Greedy

val planner_name : planner_kind -> string

val plan :
  ?planner:planner_kind ->
  ?config:Planner.config ->
  Task.t ->
  Planner.result
(** Plan a migration task.  Default planner is [Astar] (the production
    choice); [Dp] is the earlier Klotski version, [Mrc]/[Janus] the §6
    baselines, [Exhaustive] the uninformed ablation, [Greedy] the
    score-guided no-backtracking search of §7.3's guided-A* idea. *)

(** {1 Phases: the EDP-Lite output format} *)

type phase = {
  index : int;  (** 1-based phase number. *)
  action : Action.t;  (** What the crew does during this phase. *)
  block_labels : string list;  (** Blocks operated (in parallel). *)
  switches_touched : int;  (** Total switches operated in the phase. *)
  circuits_touched : int;  (** Standalone circuits operated. *)
  state : Compact.t;  (** Compact topology state after the phase. *)
}

val phases : Task.t -> Plan.t -> phase list
(** Expand a plan into its ordered topology phases, one per run of
    same-type actions — "each phase corresponds to one migration step". *)

val pp_phase : Format.formatter -> phase -> unit

(** {1 Replanning during deployment (§7.1–7.2)} *)

val remainder_task : Task.t -> executed:int list -> Task.t * int array
(** [remainder_task task ~executed] is the task left after the [executed]
    blocks have been performed: the topology advanced to the reached
    state, the remaining blocks re-indexed (canonical order preserved).
    Returns the new task and the mapping from new block ids to the
    original ids.  Each remaining block carries its dependency row from
    [task] ({!Task.with_blocks}) rather than having the index rebuilt
    ({!Task.relower}): the rows equal a rebuild's. *)

val replan :
  ?planner:planner_kind ->
  ?config:Planner.config ->
  Task.t ->
  executed:int list ->
  demand_scales:float array ->
  (Planner.result * Task.t * int array)
(** Re-run the planner mid-migration with updated demand forecasts: the
    workflow the paper adopted after finding that organic growth broke
    later steps ("we run the forecast after each migration step …
    re-run the migration planning with the updated demand").
    [demand_scales] gives per-class multiplicative factors relative to the
    currently calibrated volumes (1.0 = unchanged).
    Returns the result together with the remainder task and the
    new-to-original block id mapping. *)
