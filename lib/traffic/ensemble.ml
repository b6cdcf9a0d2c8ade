(* An ensemble of demand matrices, expressed as per-class multiplicative
   factors over the task's calibrated (week-0) volumes.  Matrix 0 is the
   base forecast itself — all factors 1.0 — so a k=1 ensemble is exactly
   the single-matrix problem and the checker's base load vector doubles
   as matrix 0's loads. *)

type t = {
  factors : float array array;  (* matrix -> class -> factor *)
  quantile : float;
  id : int;
}

(* FNV-1a over the factor bit patterns, the quantile and the dimensions:
   a deterministic identity for cache keying (two tasks sharing a cache
   must never alias distinct ensembles).  Hand-rolled like
   Forecast.key_hash — the polymorphic [Hashtbl.hash] is out (R1) and
   would also truncate floats. *)
let hash_of factors quantile =
  let h = ref 0xcbf29ce5 in
  let mix_byte b = h := (!h lxor b) * 0x01000193 land max_int in
  let mix_int64 x =
    for shift = 0 to 7 do
      mix_byte (Int64.to_int (Int64.shift_right_logical x (8 * shift)) land 0xff)
    done
  in
  Array.iter
    (fun row ->
      mix_byte (Array.length row land 0xff);
      Array.iter (fun f -> mix_int64 (Int64.bits_of_float f)) row)
    factors;
  mix_int64 (Int64.bits_of_float quantile);
  mix_byte (Array.length factors land 0xff);
  !h

let create ?(quantile = 1.0) factors =
  let k = Array.length factors in
  if k < 1 then invalid_arg "Ensemble.create: need at least one matrix";
  let n = Array.length factors.(0) in
  Array.iteri
    (fun m row ->
      if Array.length row <> n then
        invalid_arg "Ensemble.create: ragged factor matrix";
      Array.iter
        (fun f ->
          if not (Float.is_finite f) || f < 0.0 then
            invalid_arg "Ensemble.create: factors must be finite and >= 0")
        row;
      if m = 0 then
        Array.iter
          (fun f ->
            if not (Float.equal f 1.0) then
              invalid_arg
                "Ensemble.create: matrix 0 is the base forecast (factors 1.0)")
          row)
    factors;
  if not (Float.is_finite quantile) || quantile <= 0.0 || quantile > 1.0 then
    invalid_arg "Ensemble.create: quantile must be in (0, 1]";
  let factors = Array.map Array.copy factors in
  { factors; quantile; id = hash_of factors quantile }

let k t = Array.length t.factors
let n_classes t = Array.length t.factors.(0)
let id t = t.id
let factor t ~matrix ~cls = t.factors.(matrix).(cls)
let row t m = Array.copy t.factors.(m)

(* ⌈q·k⌉ clamped to [1, k]: the number of matrices a state must be safe
   under.  q = 1.0 demands all k; any q gives at least one. *)
let need t =
  let k = Array.length t.factors in
  let n = int_of_float (ceil (t.quantile *. float_of_int k)) in
  max 1 (min k n)

let sub t ~matrices =
  if Array.length matrices < 1 then
    invalid_arg "Ensemble.sub: need at least one matrix";
  if not (Array.exists (fun m -> m = 0) matrices) then
    invalid_arg "Ensemble.sub: the base matrix 0 must be kept";
  create ~quantile:t.quantile (Array.map (fun m -> t.factors.(m)) matrices)

(* Deterministic percentile/spike construction from a seeded forecast.
   Odd matrices sample the forecast itself (growth plus its own seeded
   spikes) at weeks spread across the horizon — the growth percentiles;
   even matrices (from 2) are adversarial spike scenarios: compound
   growth with a surge forced onto the classes whose seeded draw lands
   in the lowest quarter, so roughly a quarter of the classes surge at
   once regardless of the model's own spike probability.  Everything
   derives from the forecast seed via Forecast's keyed draws: same seed,
   same matrices, in any process and at any job count. *)
let generate ?(quantile = 1.0) ~k ~horizon_weeks fc ~class_names =
  if k < 1 then invalid_arg "Ensemble.generate: k must be >= 1";
  if horizon_weeks < 1 then
    invalid_arg "Ensemble.generate: horizon_weeks must be >= 1";
  let factors =
    Array.init k (fun m ->
        if m = 0 then Array.make (Array.length class_names) 1.0
        else begin
          let week = max 1 (horizon_weeks * m / (max 1 (k - 1))) in
          if m mod 2 = 1 then
            Array.map
              (fun name -> Forecast.scale_at fc ~week ~class_name:name)
              class_names
          else begin
            let growth = Forecast.growth_at fc ~week in
            Array.map
              (fun name ->
                if Forecast.spike_draw fc ~week ~class_name:name < 0.25 then
                  growth *. (1.0 +. Forecast.spike_magnitude fc)
                else growth)
              class_names
          end
        end)
  in
  create ~quantile factors
