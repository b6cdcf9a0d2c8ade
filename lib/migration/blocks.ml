type t = {
  id : int;
  label : string;
  action : Action.t;
  switches : int array;
  circuits : int array;
}

(* Chunk [xs] into [k] balanced slices, preserving order. *)
let split_into k xs =
  if k <= 1 then [ xs ]
  else begin
    let n = List.length xs in
    let base = n / k and extra = n mod k in
    let rec take i acc rest =
      if i = k then List.rev acc
      else
        let len = base + (if i < extra then 1 else 0) in
        let rec grab j taken rest =
          if j = 0 then (List.rev taken, rest)
          else
            match rest with
            | [] -> (List.rev taken, [])
            | x :: tl -> grab (j - 1) (x :: taken) tl
        in
        let slice, rest = grab len [] rest in
        take (i + 1) (slice :: acc) rest
    in
    List.filter (fun slice -> not (List.is_empty slice)) (take 0 [] xs)
  end

(* Merge consecutive groups [m] at a time. *)
let merge_by m groups =
  if m <= 1 then groups
  else begin
    let rec loop acc = function
      | [] -> List.rev acc
      | rest ->
          let rec grab j taken rest =
            if j = 0 then (taken, rest)
            else
              match rest with
              | [] -> (taken, [])
              | g :: tl -> grab (j - 1) (taken @ g) tl
          in
          let merged, rest = grab m [] rest in
          loop (merged :: acc) rest
    in
    loop [] groups
  end

(* Apply the Fig. 11 factor to a list of base groups: factor >= 1 splits
   each group into [factor] blocks, factor < 1 merges [1/factor] groups.
   Splitting a group into more slices than it has members, or merging
   more groups than there are, gives the same blocks as doing so exactly
   that many ways, so each count is capped in float space before it is
   converted: a huge factor neither builds a slice per unit of it nor
   overflows [int_of_float].  A split caps at two ways at least, which
   keeps an empty group's split empty. *)
let apply_factor factor groups =
  if not (factor > 0.0) then invalid_arg "Blocks.organize: factor must be positive";
  let capped x cap = int_of_float (Float.min (Float.round x) (float_of_int cap)) in
  if factor >= 1.0 then
    List.concat_map
      (fun g -> split_into (capped factor (max 2 (List.length g))) g)
      groups
  else merge_by (capped (1.0 /. factor) (List.length groups)) groups

(* Interleave several member lists so that a later split keeps a balanced
   mix of roles in every slice (a split grid block keeps FADUs and FAUUs
   together). *)
let interleave lists =
  let rec loop acc lists =
    let heads, tails =
      List.fold_right
        (fun l (hs, ts) ->
          match l with [] -> (hs, ts) | h :: t -> (h :: hs, t :: ts))
        lists ([], [])
    in
    if List.is_empty heads then List.rev acc
    else loop (List.rev_append heads acc) tails
  in
  loop [] lists

let build_blocks specs =
  List.mapi
    (fun id (label, action, switches, circuits) ->
      {
        id;
        label;
        action;
        switches = Array.of_list switches;
        circuits = Array.of_list circuits;
      })
    specs

(* Every future circuit must be owned by exactly one undrain block so the
   onboarding flips its activity flag; a circuit becomes usable only once
   both endpoints are also up, so attaching it to either endpoint's block
   is equivalent.  Circuits already operated standalone (DMAG drains) keep
   their explicit owner. *)
let attach_future_circuits topo blocks =
  let owner = Hashtbl.create 256 in
  List.iter
    (fun b ->
      (* Onboarding blocks — those whose elements start inactive — own
         the future circuits hanging off their switches. *)
      if not (Action.initial_active b.action) then
        Array.iter (fun s -> Hashtbl.replace owner s b.id) b.switches)
    blocks;
  let claimed = Hashtbl.create 256 in
  List.iter
    (fun b -> Array.iter (fun c -> Hashtbl.replace claimed c ()) b.circuits)
    blocks;
  let extra = Hashtbl.create 16 in
  for j = 0 to Topo.n_circuits topo - 1 do
    if (not (Topo.circuit_active topo j)) && not (Hashtbl.mem claimed j) then begin
      let block_of s = Hashtbl.find_opt owner s in
      match
        ( block_of (Topo.endpoint_lo topo j),
          block_of (Topo.endpoint_hi topo j) )
      with
      | Some b, _ | None, Some b ->
          let prev =
            match Hashtbl.find_opt extra b with Some l -> l | None -> []
          in
          Hashtbl.replace extra b (j :: prev)
      | None, None ->
          invalid_arg
            (Printf.sprintf
               "Blocks: future circuit %d has no owning undrain block" j)
    end
  done;
  List.map
    (fun b ->
      match Hashtbl.find_opt extra b.id with
      | None -> b
      | Some extra_circuits ->
          {
            b with
            circuits =
              Array.append b.circuits
                (Array.of_list (List.rev extra_circuits));
          })
    blocks

let organize_hgrid ?(factor = 1.0) (sc : Gen.scenario) =
  let l = sc.Gen.layout in
  let variants = max 1 l.Gen.params.Gen.mesh_variants in
  (* One operation block per grid (FADUs and FAUUs merged, Fig. 5); grids
     with different meshing variants form different action types. *)
  let grid_groups op generation fadu_by_grid fauu_by_grid =
    List.concat
      (List.init variants (fun variant ->
           let members_of_variant =
             Array.to_list fadu_by_grid
             |> List.mapi (fun g fadus ->
                    (g, interleave [ fadus; fauu_by_grid.(g) ]))
             |> List.filter (fun (g, _) -> g mod variants = variant)
             |> List.map snd
           in
           List.mapi
             (fun i members ->
               ( Printf.sprintf "%s hgrid-v%d/mesh%d/block%d"
                   (Action.op_to_string op) generation variant i,
                 Action.make op (Action.Hgrid_layer (generation, variant)),
                 members,
                 [] ))
             (apply_factor factor members_of_variant)))
  in
  build_blocks
    (grid_groups Action.Drain 1 l.Gen.fadu_v1_by_grid l.Gen.fauu_v1_by_grid
    @ grid_groups Action.Undrain 2 l.Gen.fadu_v2_by_grid l.Gen.fauu_v2_by_grid)

let organize_forklift ?(factor = 1.0) (sc : Gen.scenario) =
  let l = sc.Gen.layout in
  let p = l.Gen.params in
  let dc = 0 in
  (* Base policy: quarter-plane SSW segments.  Draining more than a
     quarter of a plane at once funnels its traffic onto too few
     remaining spines (§2.2), so coarser defaults are unsafe. *)
  let base_segments = max 1 ((p.Gen.ssws_per_plane + 3) / 4) in
  let plane_groups by_plane =
    List.concat
      (List.init p.Gen.planes (fun plane ->
           split_into base_segments by_plane.(plane)))
  in
  let old_groups = plane_groups l.Gen.ssws_by_dc_plane.(dc) in
  let new_groups = plane_groups l.Gen.new_ssws_by_dc_plane.(dc) in
  let expand op generation groups =
    List.mapi
      (fun i members ->
        ( Printf.sprintf "%s ssw-g%d/segment%d" (Action.op_to_string op)
            generation i,
          Action.make op (Action.Switch_layer (Switch.SSW, generation)),
          members,
          [] ))
      (apply_factor factor groups)
  in
  build_blocks
    (expand Action.Drain 1 old_groups @ expand Action.Undrain 2 new_groups)

let organize_dmag ?(factor = 1.0) (sc : Gen.scenario) =
  let circuit_groups =
    List.map (fun (_, circuits) -> circuits) sc.Gen.drain_circuit_groups
  in
  let ma_base = split_into 8 sc.Gen.layout.Gen.mas in
  let drains =
    List.mapi
      (fun i circuits ->
        ( Printf.sprintf "drain fauu-eb/group%d" i,
          Action.make Action.Drain (Action.Circuit_group "FAUU-EB"),
          [],
          circuits ))
      (apply_factor factor circuit_groups)
  in
  let undrains =
    List.mapi
      (fun i mas ->
        ( Printf.sprintf "undrain ma/group%d" i,
          Action.make Action.Undrain (Action.Switch_layer (Switch.MA, 1)),
          mas,
          [] ))
      (apply_factor factor ma_base)
  in
  build_blocks (drains @ undrains)

(* OCS scenarios: rewire blocks retarget whole circuit groups through
   the optical switch (each group one action type, carrying its target
   endpoint in the payload); the swap variant expresses the same goal
   with standalone circuit drains/undrains instead; either way the
   retired boundary switches are drained per-switch at the end. *)
let organize_ocs ?(factor = 1.0) (sc : Gen.scenario) =
  let rewires =
    List.concat_map
      (fun (label, circuits, new_hi) ->
        List.mapi
          (fun i slice ->
            ( Printf.sprintf "rewire %s/block%d" label i,
              Action.make
                (Action.Rewire { circuit_sel = label; new_hi })
                (Action.Circuit_group label),
              [],
              slice ))
          (apply_factor factor [ circuits ]))
      sc.Gen.rewire_groups
  in
  let circuit_drains =
    List.mapi
      (fun i circuits ->
        ( Printf.sprintf "drain fauu-eb/group%d" i,
          Action.make Action.Drain (Action.Circuit_group "FAUU-EB"),
          [],
          circuits ))
      (apply_factor factor
         (List.map (fun (_, circuits) -> circuits) sc.Gen.drain_circuit_groups))
  in
  let circuit_undrains =
    List.mapi
      (fun i circuits ->
        ( Printf.sprintf "undrain fauu-ebnew/group%d" i,
          Action.make Action.Undrain (Action.Circuit_group "FAUU-EB-NEW"),
          [],
          circuits ))
      (apply_factor factor
         (List.map
            (fun (_, circuits) -> circuits)
            sc.Gen.undrain_circuit_groups))
  in
  let eb_drains =
    List.mapi
      (fun i switches ->
        ( Printf.sprintf "drain eb/block%d" i,
          Action.make Action.Drain (Action.Switch_layer (Switch.EB, 1)),
          switches,
          [] ))
      (apply_factor factor (List.map (fun s -> [ s ]) sc.Gen.drain_switches))
  in
  build_blocks (rewires @ circuit_drains @ circuit_undrains @ eb_drains)

let organize ?(factor = 1.0) (sc : Gen.scenario) =
  let blocks =
    match sc.Gen.kind with
    | Gen.Hgrid_v1_to_v2 -> organize_hgrid ~factor sc
    | Gen.Ssw_forklift -> organize_forklift ~factor sc
    | Gen.Dmag -> organize_dmag ~factor sc
    | Gen.Ocs_rewire | Gen.Ocs_swap -> organize_ocs ~factor sc
  in
  attach_future_circuits sc.Gen.topo blocks

let symmetry_granularity (sc : Gen.scenario) =
  (* Switches touched by rewires — the as-built endpoints losing circuits
     and the targets gaining them — are pinned into singleton symmetry
     blocks: two switches whose wiring diverges mid-plan are never
     interchangeable, however alike their as-built signatures. *)
  let pinned =
    List.concat_map
      (fun (_, circuits, new_hi) ->
        new_hi :: List.map (fun c -> Topo.endpoint_hi sc.Gen.topo c) circuits)
      sc.Gen.rewire_groups
  in
  let symmetry op scope =
    List.map
      (fun (b : Symmetry.block) ->
        ( Printf.sprintf "%s %s-g%d sym-block" (Action.op_to_string op)
            (Switch.role_to_string b.Symmetry.role)
            b.Symmetry.generation,
          Action.make op (Action.Switch_layer (b.Symmetry.role, b.Symmetry.generation)),
          b.Symmetry.members,
          [] ))
      (Symmetry.blocks (Topo.universe sc.Gen.topo) ~pinned ~scope)
  in
  let drains = symmetry Action.Drain sc.Gen.drain_switches in
  let undrains = symmetry Action.Undrain sc.Gen.undrain_switches in
  let rewires =
    List.map
      (fun (label, circuits, new_hi) ->
        ( Printf.sprintf "rewire %s" label,
          Action.make
            (Action.Rewire { circuit_sel = label; new_hi })
            (Action.Circuit_group label),
          [],
          circuits ))
      sc.Gen.rewire_groups
  in
  let circuit_drains =
    List.map
      (fun (label, circuits) ->
        ( Printf.sprintf "drain %s" label,
          Action.make Action.Drain (Action.Circuit_group "FAUU-EB"),
          [],
          circuits ))
      sc.Gen.drain_circuit_groups
  in
  let circuit_undrains =
    List.map
      (fun (label, circuits) ->
        ( Printf.sprintf "undrain %s" label,
          Action.make Action.Undrain (Action.Circuit_group "FAUU-EB-NEW"),
          [],
          circuits ))
      sc.Gen.undrain_circuit_groups
  in
  attach_future_circuits sc.Gen.topo
    (build_blocks
       (drains @ rewires @ circuit_drains @ circuit_undrains @ undrains))

let validate topo blocks =
  let seen_sw = Hashtbl.create 64 and seen_ci = Hashtbl.create 64 in
  let error = ref None in
  let fail fmt =
    Printf.ksprintf (fun s -> if Option.is_none !error then error := Some s) fmt
  in
  List.iter
    (fun b ->
      let active_expected = Action.initial_active b.action in
      Array.iter
        (fun s ->
          if Hashtbl.mem seen_sw s then fail "switch %d in two blocks" s;
          Hashtbl.replace seen_sw s ();
          if Topo.switch_active topo s <> active_expected then
            fail "switch %d: wrong initial activity for %s" s b.label)
        b.switches;
      Array.iter
        (fun c ->
          if Hashtbl.mem seen_ci c then fail "circuit %d in two blocks" c;
          Hashtbl.replace seen_ci c ();
          if Topo.circuit_active topo c <> active_expected then
            fail "circuit %d: wrong initial activity for %s" c b.label)
        b.circuits)
    blocks;
  match !error with None -> Ok () | Some e -> Error e
