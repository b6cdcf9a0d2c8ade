type endpoint = Rsws_of_dc of int | Rsws_except_dc of int | Backbone

type t = { name : string; src : endpoint; dst : endpoint; volume : float }

let endpoint_equal a b =
  match (a, b) with
  | Rsws_of_dc i, Rsws_of_dc j | Rsws_except_dc i, Rsws_except_dc j -> i = j
  | Backbone, Backbone -> true
  | (Rsws_of_dc _ | Rsws_except_dc _ | Backbone), _ -> false

let make ~name ~src ~dst ~volume =
  if volume < 0.0 then invalid_arg "Demand.make: negative volume";
  if endpoint_equal src dst then
    invalid_arg "Demand.make: source equals destination";
  { name; src; dst; volume }

let scale f d = { d with volume = d.volume *. f }

let total_volume ds = List.fold_left (fun acc d -> acc +. d.volume) 0.0 ds

