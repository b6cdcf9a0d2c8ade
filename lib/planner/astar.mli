(** The Klotski-A* search planner (§4.4, Algorithm 2).

    Informed search over compact states (V, last action type) with the
    domain-specific priority f(n) = g(n) + h(n): g is the operated
    sequence's cost, h the admissible Eq. 9 bound (tightened for the
    in-progress run, see {!Cost.heuristic_with_last}).  States with equal
    f are ordered by the number of finished actions, descending — deeper
    states first, the secondary priority of §4.4.  Satisfiability of every
    candidate state goes through the ESC cache ({!Search.check}), one
    successor at a time in ascending action type.

    Terminates with the cost-optimal plan, a proof of infeasibility (open
    list exhausted), or a timeout. *)

val name : string
(** ["Klotski-A*"] *)

val plan :
  ?config:Planner.config ->
  ?dedup:bool ->
  Task.t ->
  Planner.result
(** [dedup] (default [true]) controls the compact-representation state
    table.  [~dedup:false] together with [use_cache = false] in the config
    is the "Klotski w/o ESC" ablation of §6.4: without the
    ordering-agnostic representation there is nothing to key equivalent
    states by, so the search degenerates to best-first over the
    action-sequence tree and every generated state pays a full
    satisfiability check. *)
