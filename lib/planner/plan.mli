(** Migration plans: the planners' output.

    A plan is an ordered sequence of operation blocks.  Consecutive blocks
    of the same action type form a {e run} and are operated in parallel by
    the on-site crews; the plan cost is the cost of its runs under the
    task's α (Eq. 1 / §5).  EDP-Lite consumes a plan as an ordered list of
    topology phases, one per executed block. *)

type t = {
  blocks : int list;  (** Block ids in execution order. *)
  types : int list;  (** Action-type index of each step. *)
  cost : float;  (** {!Cost.sequence} of [types] under the task's α. *)
  runs : (int * int) list;  (** (action type, block count) phases. *)
}

val make : Task.t -> int list -> t
(** [make task blocks] derives types, cost and runs.  Raises
    [Invalid_argument] on an unknown block id. *)

val length : t -> int
(** Number of block-level steps. *)

val validate : Task.t -> t -> (unit, string) result
(** Full re-verification: the plan operates every block of the task
    exactly once, every intermediate topology satisfies the demand and
    port constraints, and the recorded cost matches a replay.  This is
    the safety audit of §7.2 ("we add extra audits and safety checks to
    Klotski's plans").  It is not independent of the planner: every
    state goes through {!Constraint.check_plan}, the same
    {!Constraint.verdict}, delta layer and ECMP kernel the planners'
    checks use, so it catches a planner that admits a state the checker
    refuses, not a fault in the checker itself. *)

val states : Task.t -> t -> Compact.t list
(** The compact state after each step, origin excluded, target last.
    Meaningful for plans that consume blocks in canonical per-type order
    (all Klotski planners do). *)

val pp : Task.t -> Format.formatter -> t -> unit
(** Human-readable phase listing. *)
