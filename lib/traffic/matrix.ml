module Prng = Kutil.Prng

let jittered prng total n =
  (* Split [total] over [n] classes with +-20% multiplicative jitter,
     renormalized so the sum stays exactly [total]. *)
  let raw = Array.init n (fun _ -> Prng.uniform prng ~lo:0.8 ~hi:1.2) in
  let s = Array.fold_left ( +. ) 0.0 raw in
  Array.map (fun w -> total *. w /. s) raw

let generate ~prng ~dcs ?(east_west_total = 600.0) ?(egress_total = 300.0)
    ?(ingress_total = 300.0) ?(granularity = `Per_dc) () =
  if dcs <= 0 then invalid_arg "Matrix.generate: dcs must be positive";
  let east_west =
    if dcs < 2 then []
    else
      match granularity with
      | `Per_dc ->
          let shares = jittered prng east_west_total dcs in
          List.init dcs (fun i ->
              Demand.make
                ~name:(Printf.sprintf "ew-dc%d" i)
                ~src:(Demand.Rsws_of_dc i) ~dst:(Demand.Rsws_except_dc i)
                ~volume:shares.(i))
      | `Per_pair ->
          (* One class per ordered DC pair: finer control, dearer checks. *)
          let pairs =
            List.concat
              (List.init dcs (fun i ->
                   List.filter_map
                     (fun j -> if i = j then None else Some (i, j))
                     (List.init dcs Fun.id)))
          in
          let shares = jittered prng east_west_total (List.length pairs) in
          List.mapi
            (fun k (i, j) ->
              Demand.make
                ~name:(Printf.sprintf "ew-dc%d-dc%d" i j)
                ~src:(Demand.Rsws_of_dc i) ~dst:(Demand.Rsws_of_dc j)
                ~volume:shares.(k))
            pairs
  in
  let egress =
    let shares = jittered prng egress_total dcs in
    List.init dcs (fun i ->
        Demand.make
          ~name:(Printf.sprintf "egress-dc%d" i)
          ~src:(Demand.Rsws_of_dc i) ~dst:Demand.Backbone ~volume:shares.(i))
  in
  let ingress =
    let shares = jittered prng ingress_total dcs in
    List.init dcs (fun i ->
        Demand.make
          ~name:(Printf.sprintf "ingress-dc%d" i)
          ~src:Demand.Backbone ~dst:(Demand.Rsws_of_dc i) ~volume:shares.(i))
  in
  east_west @ egress @ ingress

(* Evaluate every (compiled, scale) pair into [loads] (zeroed first):
   (max over usable circuits of load/capacity, stuck volume). *)
let max_utilization topo scratch classes ~loads =
  Array.fill loads 0 (Array.length loads) 0.0;
  let stuck = ref 0.0 in
  List.iter
    (fun (compiled, scale) ->
      let r = Ecmp.evaluate ~scale topo scratch compiled ~loads in
      stuck := !stuck +. r.Ecmp.stuck)
    classes;
  let top_j = [| -1 |] and top_u = [| neg_infinity |] in
  Topo.hottest topo loads top_j top_u;
  ((if top_j.(0) >= 0 then top_u.(0) else 0.0), !stuck)

let calibration_factor topo classes ~target_util =
  let scratch = Ecmp.make_scratch (Topo.universe topo) in
  let loads = Array.make (Topo.n_circuits topo) 0.0 in
  let max_util, stuck = max_utilization topo scratch classes ~loads in
  if stuck > 1e-9 then
    failwith "Matrix.calibration_factor: demands are unroutable on the \
              original topology";
  if max_util <= 0.0 then
    failwith "Matrix.calibration_factor: zero utilization, nothing to scale";
  target_util /. max_util
