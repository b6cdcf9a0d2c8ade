(** Exhaustive search over action sequences.

    Two uses:

    - the "Klotski w/o A*" ablation of §6.4: remove the informed search
      and the state-space merging, leaving a depth-first traversal of the
      action-{e sequence} tree (operation blocks and the ESC cache stay).
      It must visit every feasible interleaving — multinomially many — to
      certify optimality, which is the "explore the whole search space"
      behaviour the paper measures at 7–1456× slower;
    - the oracle for the test suite: on small tasks,
      [plan ~bound:`Heuristic] (or [~bound:`None], which enumerates
      every feasible sequence) finds the optimum independently of A*
      and DP.

    Every bound is exact: a branch is cut only once a lower bound on its
    cost reaches the best known plan.  On budget expiry the best plan found
    so far comes back as [Timeout (Some plan)]. *)

val name : string
(** ["Klotski w/o A*"] *)

val plan :
  ?config:Planner.config ->
  ?bound:[ `Cost_only | `Heuristic | `None ] ->
  Task.t ->
  Planner.result
(** [bound] selects the branch-and-bound strength:
    - [`Cost_only] (default, the w/o-A* ablation): a branch is cut only
      when the cost already paid reaches the best known plan — the
      uninformed search has no admissible look-ahead;
    - [`Heuristic]: additionally add the Eq. 9 bound (still exact, much
      faster — this is what the test oracle uses);
    - [`None]: full enumeration of every feasible sequence. *)
