(** Traffic demands (§3, §6.1).

    The paper's demand set D contains three kinds of source/target pairs:
    RSW to EBB (region egress), EBB to RSW (ingress), and RSW to RSW
    (east/west between buildings), with volumes of hundreds of Tbps.  A
    demand here names an aggregate class between endpoint groups; the ECMP
    engine spreads its volume uniformly over the member switches. *)

type endpoint =
  | Rsws_of_dc of int  (** Every rack switch of one datacenter. *)
  | Rsws_except_dc of int
      (** Rack switches of every {e other} datacenter: the aggregate
          east-west sink for one source building. *)
  | Backbone  (** The EBB routers (traffic entering or leaving the region). *)

type t = {
  name : string;  (** Stable label, e.g. ["ew-dc2"] or ["egress-dc0"]. *)
  src : endpoint;
  dst : endpoint;
  volume : float;  (** Aggregate Tbps for the class. *)
}

val make : name:string -> src:endpoint -> dst:endpoint -> volume:float -> t
(** Constructor; volume must be non-negative and the endpoints must not be
    equal. *)

val scale : float -> t -> t
(** [scale f d] multiplies the volume by [f] (used by calibration and by
    demand forecasts). *)

val total_volume : t list -> float
(** Sum of the volumes of a demand set. *)
