(** Traffic-demand forecasting over the weeks of a migration (§7.1).

    Migrations last weeks to months; the paper reports that overlooking
    organic demand growth made later migration steps violate the demand
    constraints, so Klotski re-runs the forecast — and replanning — after
    each step.  This model captures what that workflow needs: compounding
    organic growth, plus occasional service-behaviour spikes like the
    warm-storage backup change of §7.2. *)

type t
(** A forecast model shared by all demand classes. *)

val create :
  ?weekly_growth:float ->
  ?spike_probability:float ->
  ?spike_magnitude:float ->
  prng:Kutil.Prng.t ->
  unit ->
  t
(** [create ~prng ()] builds a model with compounding [weekly_growth]
    (default 0.01 = 1%/week), and per-week per-class probability
    [spike_probability] (default 0.05) of a multiplicative surge of
    [spike_magnitude] (default 0.5 = +50%) lasting one week. *)

val scale_at : t -> week:int -> class_name:string -> float
(** Deterministic multiplicative factor for a class at a given week
    ([week = 0] is the plan's start; factor 1.0).  Spikes are drawn
    reproducibly from the model's PRNG keyed by (week, class). *)

val growth_at : t -> week:int -> float
(** The pure compounding-growth component of {!scale_at}: the factor
    every class shares at [week] before any spike.  Raises on a negative
    week. *)

val spike_draw : t -> week:int -> class_name:string -> float
(** The deterministic uniform [0, 1) draw behind a (week, class) spike
    decision — a spike fires when the draw falls below the model's spike
    probability.  Exposed so ensemble construction ({!Ensemble}) can
    force spike scenarios from the same seeded stream the forecast
    itself uses. *)

val spike_magnitude : t -> float
(** The multiplicative surge size (0.5 = +50%). *)

val apply : t -> week:int -> Demand.t list -> Demand.t list
(** Scale every class of a demand set to its forecast at [week]. *)
