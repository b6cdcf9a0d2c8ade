module Prng = Kutil.Prng

type t = {
  weekly_growth : float;
  spike_probability : float;
  spike_magnitude : float;
  seed : int;
}

let create ?(weekly_growth = 0.01) ?(spike_probability = 0.05)
    ?(spike_magnitude = 0.5) ~prng () =
  {
    weekly_growth;
    spike_probability;
    spike_magnitude;
    seed = Int64.to_int (Prng.next_int64 prng);
  }

(* Spikes must be reproducible per (week, class) independent of query
   order, so each query derives a fresh stream from a hash of the key.
   The hash is hand-rolled (FNV-1a over the class name, Knuth
   multiplicative mixing for the ints) rather than the polymorphic
   [Hashtbl.hash] (R1): this one is total over the key, keyed by every
   byte of the name, and pinned independent of stdlib internals. *)
let key_hash seed ~week ~class_name =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land max_int)
    class_name;
  (!h lxor (seed * 0x2545F491) lxor (week * 0x9E3779B1)) land max_int

let spike_draw t ~week ~class_name =
  let h = key_hash t.seed ~week ~class_name in
  let g = Prng.create ~seed:(t.seed lxor (h * 2654435761)) in
  Prng.float g 1.0

let growth_at t ~week =
  if week < 0 then invalid_arg "Forecast.growth_at: negative week";
  (1.0 +. t.weekly_growth) ** float_of_int week

let spike_magnitude t = t.spike_magnitude
let scale_at t ~week ~class_name =
  if week < 0 then invalid_arg "Forecast.scale_at: negative week";
  let growth = growth_at t ~week in
  let spike =
    if week > 0 && spike_draw t ~week ~class_name < t.spike_probability then
      1.0 +. t.spike_magnitude
    else 1.0
  in
  growth *. spike

let apply t ~week demands =
  List.map
    (fun (d : Demand.t) ->
      Demand.scale (scale_at t ~week ~class_name:d.Demand.name) d)
    demands
