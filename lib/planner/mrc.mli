(** The MRC baseline: greedy maximization of the minimum residual capacity
    (the planning strategy of the Jupiter/Minimal-Rewiring line of work
    [37], as used for comparison in §6).

    At each step MRC evaluates {e every} remaining operation block,
    applies the one whose resulting topology is feasible and maximizes the
    worst circuit's residual headroom, and repeats.  Residuals within 1e-9
    tie and the lowest block id wins, so the plan does not depend on
    whether the checker evaluates incrementally.  It has no notion of
    action-type runs, so it freely alternates types — its plans are safe
    but not cost-optimal (Fig. 8a) — and evaluating all remaining
    candidates each step costs O(|L|²) satisfiability checks (Fig. 8b).
    Like Janus, it cannot plan migrations that change the topology's
    layering (E-DMAG, §6.3): the residual-capacity objective is undefined
    for a layer that does not exist yet. *)

val name : string
(** ["MRC"] *)

val plan : ?config:Planner.config -> Task.t -> Planner.result
