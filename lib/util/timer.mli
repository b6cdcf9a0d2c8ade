(** Wall-clock timers and planning budgets.

    The paper caps every planner run at 24 hours ("more time for planning
    does not meet the efficiency requirement in production") and reports a
    cross when a planner exhausts the budget.  [Budget.t] reproduces that
    cutoff mechanism with a configurable limit. *)

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]).  Planning budgets and
    elapsed-time reporting use the wall clock, the time a caller waits
    for: a caller that runs the library on several domains accrues CPU
    time faster than wall time. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result together with the elapsed
    wall-clock seconds. *)

module Budget : sig
  type t
  (** A deadline measured from creation time. *)

  val unlimited : t
  (** A budget that never expires. *)

  val of_seconds : float -> t
  (** [of_seconds s] expires [s] seconds after the call.  [s] must be
      positive; raises [Invalid_argument] otherwise, NaN included. *)

  val expired : t -> bool
  (** [expired b] is [true] once the deadline has passed.  Planners poll
      this between state expansions. *)
end
