(** An ensemble of k demand matrices for robust satisfiability.

    Klotski's checker admits a state when it is safe under {e one}
    forecast matrix, yet plans execute over weeks of drifting demand —
    the forecast is re-run and plans are re-audited every step (§7.1),
    and every drift past the planned matrix forces a replan.  Planning
    against an ensemble of matrices instead (METTEOR's traffic-matrix
    ensembles, PAPERS.md) buys robustness up front: a state is admitted
    only when it is safe under at least ⌈q·k⌉ of the k matrices
    (q = 1.0: all of them — the CVaR-style quantile rule).

    An ensemble is a k × classes matrix of multiplicative factors over
    the task's calibrated volumes.  Matrix 0 is always the base forecast
    (all factors 1.0), so k = 1 is {e exactly} the single-matrix
    problem, and per-matrix loads share the base evaluation's ECMP
    traversal: flow is linear in class volume, so matrix m's load on a
    circuit is the base class share times the class factor — k matrices
    cost one traversal plus k−1 fused multiply-adds per share, not k
    full checks. *)

type t

val create : ?quantile:float -> float array array -> t
(** [create ?quantile factors] with [factors.(m).(d)] the volume factor
    of class [d] under matrix [m].  Matrix 0 must be all 1.0 (the base
    forecast); every factor must be finite and non-negative; [quantile]
    (default 1.0) must lie in (0, 1].  The matrix is copied.  Raises
    [Invalid_argument] otherwise. *)

val generate :
  ?quantile:float ->
  k:int ->
  horizon_weeks:int ->
  Forecast.t ->
  class_names:string array ->
  t
(** Deterministic percentile/spike construction from a seeded forecast:
    matrix 0 is the base, odd matrices sample the forecast (growth and
    its own seeded spikes) at weeks spread over [horizon_weeks], even
    matrices force a surge onto the seeded quarter of the classes on top
    of pure growth.  Depends only on the forecast's seed and parameters
    — same seed ⇒ bit-identical matrices, in any process and at any job
    count. *)

val k : t -> int
(** Number of matrices (≥ 1). *)

val n_classes : t -> int

val need : t -> int
(** ⌈quantile·k⌉ clamped to [1, k]: how many matrices a state must be
    safe under to be admitted. *)

val id : t -> int
(** Deterministic identity hash over the factor bits, the quantile and
    the dimensions — what the satisfiability cache appends to its keys
    so distinct ensembles never alias. *)

val factor : t -> matrix:int -> cls:int -> float

val row : t -> int -> float array
(** The factor row of one matrix (a copy). *)

val sub : t -> matrices:int array -> t
(** The sub-ensemble restricted to the given matrix indices (which must
    include 0), keeping the quantile.  For the monotonicity property
    tests. *)
