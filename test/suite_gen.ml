(* Tests for the Table-3 topology/scenario generators. *)

let within label lo hi x =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d within [%d, %d]" label x lo hi)
    true
    (x >= lo && x <= hi)

let test_table3_scale () =
  (* The "~" targets of Table 3, with generous tolerance. *)
  let expectations =
    [
      ("A", (30, 60), (60, 120), (40, 60));
      ("B", (80, 180), (400, 800), (80, 120));
      ("C", (450, 800), (4_000, 10_000), (250, 400));
      ("D", (800, 1_500), (12_000, 28_000), (250, 400));
      ("E", (8_000, 13_000), (70_000, 130_000), (600, 800));
      ("E-DMAG", (8_000, 13_000), (70_000, 130_000), (60, 140));
      ("E-SSW", (8_000, 13_000), (70_000, 130_000), (200, 400));
    ]
  in
  List.iter
    (fun (label, (s_lo, s_hi), (c_lo, c_hi), (a_lo, a_hi)) ->
      let st = Gen.stats (Gen.scenario_of_label label) in
      within (label ^ " switches") s_lo s_hi st.Gen.orig_switches;
      within (label ^ " circuits") c_lo c_hi st.Gen.orig_circuits;
      within (label ^ " actions") a_lo a_hi st.Gen.actions)
    expectations

let test_original_state_valid () =
  List.iter
    (fun label ->
      let sc = Gen.scenario_of_label label in
      Alcotest.(check bool) (label ^ " ports ok") true (Topo.ports_ok sc.Gen.topo);
      Alcotest.(check bool)
        (label ^ " future inactive") true
        (List.for_all
           (fun s -> not (Topo.switch_active sc.Gen.topo s))
           sc.Gen.undrain_switches);
      Alcotest.(check bool)
        (label ^ " drains active") true
        (List.for_all (fun s -> Topo.switch_active sc.Gen.topo s)
           sc.Gen.drain_switches))
    [ "A"; "B"; "C" ]

let test_unknown_label () =
  Alcotest.check_raises "unknown label"
    (Invalid_argument "Gen.scenario_of_label: unknown \"Z\"") (fun () ->
      ignore (Gen.scenario_of_label "Z"))

let test_layout_consistency () =
  let sc = Gen.scenario_of_label "B" in
  let l = sc.Gen.layout in
  let p = l.Gen.params in
  Alcotest.(check int) "RSWs per dc"
    (p.Gen.pods * p.Gen.rsws_per_pod)
    (List.length l.Gen.rsws_by_dc.(0));
  Alcotest.(check int) "SSWs per plane" p.Gen.ssws_per_plane
    (List.length l.Gen.ssws_by_dc_plane.(0).(0));
  Alcotest.(check int) "V1 grids" p.Gen.v1_grids
    (Array.length l.Gen.fadu_v1_by_grid);
  Alcotest.(check int) "FADUs per V1 grid" p.Gen.v1_fadu_per_grid
    (List.length l.Gen.fadu_v1_by_grid.(0));
  Alcotest.(check int) "EBs" p.Gen.ebs (List.length l.Gen.ebs)

let test_stripe_coverage () =
  (* Every SSW gets exactly one circuit into every V1 grid. *)
  let sc = Gen.scenario_of_label "A" in
  let topo = sc.Gen.topo in
  let l = sc.Gen.layout in
  let v1_fadus = Hashtbl.create 16 in
  Array.iteri
    (fun g fadus -> List.iter (fun f -> Hashtbl.replace v1_fadus f g) fadus)
    l.Gen.fadu_v1_by_grid;
  Array.iter
    (fun per_plane ->
      Array.iter
        (fun ssws ->
          List.iter
            (fun ssw ->
              let grids_hit = Hashtbl.create 8 in
              Array.iter
                (fun j ->
                  let c = Topo.circuit topo j in
                  match Hashtbl.find_opt v1_fadus c.Circuit.hi with
                  | Some g ->
                      let n =
                        Option.value ~default:0 (Hashtbl.find_opt grids_hit g)
                      in
                      Hashtbl.replace grids_hit g (n + 1)
                  | None -> ())
                (Universe.up_circuits (Topo.universe topo) ssw);
              for g = 0 to l.Gen.params.Gen.v1_grids - 1 do
                Alcotest.(check (option int))
                  "one circuit per grid per SSW" (Some 1)
                  (Hashtbl.find_opt grids_hit g)
              done)
            ssws)
        per_plane)
    l.Gen.ssws_by_dc_plane

let test_mesh_variants_differ () =
  (* Grids of different variants connect plane 0's SSW to different FADU
     positions; same-variant grids to the same position. *)
  let p = { (Gen.params_a ()) with Gen.v1_grids = 4 } in
  let sc = Gen.build Gen.Hgrid_v1_to_v2 p in
  let l = sc.Gen.layout in
  let topo = sc.Gen.topo in
  let ssw = List.hd l.Gen.ssws_by_dc_plane.(0).(0) in
  let position grid =
    let fadus = Array.of_list l.Gen.fadu_v1_by_grid.(grid) in
    let found = ref (-1) in
    Array.iter
      (fun j ->
        let c = Topo.circuit topo j in
        Array.iteri (fun i f -> if f = c.Circuit.hi then found := i) fadus)
      (Universe.up_circuits (Topo.universe topo) ssw);
    !found
  in
  Alcotest.(check bool) "variant 0 and 1 use different positions" true
    (position 0 <> position 1);
  Alcotest.(check int) "same variant, same position" (position 0) (position 2)

let test_forklift_mirrors () =
  let sc = Gen.build Gen.Ssw_forklift (Gen.params_a ()) in
  let l = sc.Gen.layout in
  Alcotest.(check int) "one new SSW per old in dc0"
    (List.length (List.concat (Array.to_list l.Gen.ssws_by_dc_plane.(0))))
    (List.length (List.concat (Array.to_list l.Gen.new_ssws_by_dc_plane.(0))));
  Alcotest.(check bool) "other DCs untouched" true
    (Array.for_all (fun plane -> plane = []) l.Gen.new_ssws_by_dc_plane.(1));
  Alcotest.(check bool) "not a layering change" false sc.Gen.adds_layer

let test_dmag_groups () =
  let p = { (Gen.params_a ()) with Gen.mas = 8 } in
  let sc = Gen.build Gen.Dmag p in
  Alcotest.(check bool) "adds a layer" true sc.Gen.adds_layer;
  Alcotest.(check int) "one circuit group per EB" p.Gen.ebs
    (List.length sc.Gen.drain_circuit_groups);
  Alcotest.(check int) "MAs to onboard" p.Gen.mas
    (List.length sc.Gen.undrain_switches);
  (* Every drained group holds that EB's FAUU uplinks. *)
  let fauu_count = p.Gen.v1_grids * p.Gen.v1_fauu_per_grid in
  List.iter
    (fun (_, circuits) ->
      Alcotest.(check int) "group size = FAUU count" fauu_count
        (List.length circuits))
    sc.Gen.drain_circuit_groups

let test_capacity_touched_positive () =
  List.iter
    (fun label ->
      let st = Gen.stats (Gen.scenario_of_label label) in
      Alcotest.(check bool)
        (label ^ " touches capacity") true
        (st.Gen.capacity_touched > 0.0))
    Gen.all_labels

let suite =
  ( "gen",
    [
      Alcotest.test_case "Table-3 scale" `Slow test_table3_scale;
      Alcotest.test_case "original state valid" `Quick test_original_state_valid;
      Alcotest.test_case "unknown label" `Quick test_unknown_label;
      Alcotest.test_case "layout consistency" `Quick test_layout_consistency;
      Alcotest.test_case "stripe coverage" `Quick test_stripe_coverage;
      Alcotest.test_case "mesh variants differ" `Quick test_mesh_variants_differ;
      Alcotest.test_case "forklift mirrors old spines" `Quick
        test_forklift_mirrors;
      Alcotest.test_case "DMAG groups per EB" `Quick test_dmag_groups;
      Alcotest.test_case "capacity touched positive" `Slow
        test_capacity_touched_positive;
    ] )
