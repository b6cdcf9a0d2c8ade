(** Demand-matrix generation and calibration.

    The paper forecasts demands from production history; here a synthetic
    matrix with the same three class kinds (RSW→EBB, EBB→RSW, RSW→RSW) is
    generated from a seeded PRNG and then {e calibrated}: volumes are
    scaled so that the most utilized circuit of the original topology sits
    at a chosen utilization (default 45%).  With the default bound
    θ = 75% that leaves exactly the kind of band the paper describes —
    some capacity may be drained at once, but never all of it. *)

val generate :
  prng:Kutil.Prng.t ->
  dcs:int ->
  ?east_west_total:float ->
  ?egress_total:float ->
  ?ingress_total:float ->
  ?granularity:[ `Per_dc | `Per_pair ] ->
  unit ->
  Demand.t list
(** [generate ~prng ~dcs ()] builds east-west classes plus one egress and
    one ingress class per DC.  The per-kind totals (Tbps; defaults
    600/300/300, "typically hundreds of Tbps" per §6.1) are split across
    classes with ±20% multiplicative jitter drawn from [prng].  With
    [dcs = 1] there is no east-west traffic.

    [granularity] shapes the east-west classes: [`Per_dc] (default) emits
    one class per source DC sinking into all others — cheap to check;
    [`Per_pair] emits one class per ordered DC pair — finer-grained
    asymmetry at O(dcs²) evaluation cost. *)

val calibration_factor :
  Topo.t -> (Ecmp.compiled * float) list -> target_util:float -> float
(** The factor by which every volume must be multiplied so the hottest
    circuit of the {e current} state of [topo] reaches [target_util].
    Raises [Failure] if the demand set is all-zero or some volume is
    already stuck (the topology cannot route the classes at all). *)
