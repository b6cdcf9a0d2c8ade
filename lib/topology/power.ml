type t = {
  names : string array;
  caps : float array;
  domain_of : int array;
  draw : float array;
}

let make ~n_switches ~domains ~assign =
  let names = Array.of_list (List.map fst domains) in
  let caps = Array.of_list (List.map snd domains) in
  Array.iter
    (fun c -> if c <= 0.0 then invalid_arg "Power.make: non-positive capacity")
    caps;
  let domain_of = Array.make n_switches (-1) in
  let draw = Array.make n_switches 0.0 in
  List.iter
    (fun (s, d, w) ->
      if s < 0 || s >= n_switches then
        invalid_arg "Power.make: switch id out of range";
      if d < 0 || d >= Array.length caps then
        invalid_arg "Power.make: domain id out of range";
      if w <= 0.0 then invalid_arg "Power.make: non-positive draw";
      if domain_of.(s) >= 0 then
        invalid_arg "Power.make: switch assigned twice";
      domain_of.(s) <- d;
      draw.(s) <- w)
    assign;
  { names; caps; domain_of; draw }

let load p topo =
  let acc = Array.make (Array.length p.caps) 0.0 in
  Array.iteri
    (fun s d ->
      if d >= 0 && Topo.switch_active topo s then acc.(d) <- acc.(d) +. p.draw.(s))
    p.domain_of;
  acc

let ok p topo =
  let acc = load p topo in
  let rec loop i =
    i >= Array.length acc || (acc.(i) <= p.caps.(i) +. 1e-9 && loop (i + 1))
  in
  loop 0

let hall_model ?(v1_draw = 1.0) ?(v2_draw = 0.8) (sc : Gen.scenario) ~headroom =
  if headroom < 0.0 then invalid_arg "Power.hall_model: negative headroom";
  let n = Topo.n_switches sc.Gen.topo in
  let l = sc.Gen.layout in
  match sc.Gen.kind with
  | Gen.Hgrid_v1_to_v2 ->
      let v1 =
        List.concat
          (Array.to_list l.Gen.fadu_v1_by_grid
          @ Array.to_list l.Gen.fauu_v1_by_grid)
      in
      let v2 =
        List.concat
          (Array.to_list l.Gen.fadu_v2_by_grid
          @ Array.to_list l.Gen.fauu_v2_by_grid)
      in
      let v1_total = float_of_int (List.length v1) *. v1_draw in
      let v2_total = float_of_int (List.length v2) *. v2_draw in
      let assign =
        List.map (fun s -> (s, 0, v1_draw)) v1
        @ List.map (fun s -> (s, 0, v2_draw)) v2
      in
      (* Sized like the port budgets: the larger generation alone plus
         transient headroom — never both in full. *)
      make ~n_switches:n
        ~domains:
          [ ("hgrid-hall", Float.max v1_total v2_total *. (1.0 +. headroom)) ]
        ~assign
  | Gen.Ssw_forklift ->
      let planes = Array.length l.Gen.ssws_by_dc_plane.(0) in
      let domains =
        List.init planes (fun p ->
            let old_draw =
              v1_draw
              *. float_of_int (List.length l.Gen.ssws_by_dc_plane.(0).(p))
            in
            let new_draw =
              v2_draw
              *. float_of_int (List.length l.Gen.new_ssws_by_dc_plane.(0).(p))
            in
            ( Printf.sprintf "plane%d-room" p,
              Float.max old_draw new_draw *. (1.0 +. headroom) ))
      in
      let assign =
        List.concat
          (List.init planes (fun p ->
               List.map (fun s -> (s, p, v1_draw)) l.Gen.ssws_by_dc_plane.(0).(p)
               @ List.map
                   (fun s -> (s, p, v2_draw))
                   l.Gen.new_ssws_by_dc_plane.(0).(p)))
      in
      make ~n_switches:n ~domains ~assign
  | Gen.Dmag ->
      let mas = l.Gen.mas in
      let cap = Float.max 1.0 (float_of_int (List.length mas)) in
      make ~n_switches:n
        ~domains:[ ("ma-room", cap) ]
        ~assign:(List.map (fun s -> (s, 0, 1.0)) mas)
  | Gen.Ocs_rewire | Gen.Ocs_swap ->
      (* Both EB banks are powered from day one — the OCS scenarios stress
         wiring and utilization, not power, so the room fits both. *)
      let old_draw = v1_draw *. float_of_int (List.length l.Gen.ebs) in
      let new_draw = v2_draw *. float_of_int (List.length l.Gen.new_ebs) in
      make ~n_switches:n
        ~domains:[ ("eb-room", (old_draw +. new_draw) *. (1.0 +. headroom)) ]
        ~assign:
          (List.map (fun s -> (s, 0, v1_draw)) l.Gen.ebs
          @ List.map (fun s -> (s, 0, v2_draw)) l.Gen.new_ebs)
