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

(* Everything a built universe holds, and its overlay in the original
   state, as one digest: switch names, roles and fields, port budgets,
   the CSR adjacency (each switch's up and down circuits), endpoints,
   capacity bits, rank pairs, active and usable bits, usable degrees
   and the port-violation count. *)
let universe_digest topo =
  let u = Topo.universe topo in
  let b = Buffer.create (1 lsl 16) in
  let int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ' '
  in
  let bit x = Buffer.add_char b (if x then '1' else '0') in
  int (Universe.n_switches u);
  int (Universe.n_circuits u);
  for i = 0 to Universe.n_switches u - 1 do
    let s = Universe.switch u i in
    Buffer.add_string b s.Switch.name;
    Buffer.add_char b ' ';
    Buffer.add_string b (Switch.role_to_string s.Switch.role);
    Buffer.add_char b ' ';
    List.iter int
      [ s.Switch.id; s.generation; s.dc; s.pod; s.plane; s.index; s.max_ports;
        Universe.max_ports u i ];
    Array.iter int (Universe.up_circuits u i);
    Buffer.add_char b '|';
    Array.iter int (Universe.down_circuits u i);
    bit (Topo.switch_active topo i);
    int (Topo.usable_degree topo i);
    Buffer.add_char b '\n'
  done;
  for j = 0 to Universe.n_circuits u - 1 do
    int (Universe.endpoint_lo u j);
    int (Universe.endpoint_hi u j);
    Buffer.add_string b
      (Int64.to_string (Int64.bits_of_float (Universe.capacity u j)));
    Buffer.add_char b ' ';
    int (Universe.rank_pair u j);
    bit (Topo.circuit_active topo j);
    bit (Topo.usable topo j);
    Buffer.add_char b '\n'
  done;
  int (Topo.port_violation_count topo);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The digests pin what each tier builds, whatever the construction: a
   change to how the universe or its overlay is built must leave every
   one unchanged. *)
let test_universe_digests () =
  List.iter
    (fun (label, digest) ->
      Alcotest.(check string) (label ^ " digest") digest
        (universe_digest (Gen.scenario_of_label label).Gen.topo))
    [
      ("A", "7f2275bc06b21e7d4dc83b1fed4f09e6");
      ("B", "e06bd69ded038a4b70f51e9689ef81f0");
      ("C", "ba6d0b63d75e0ccc289d99cbdde7824e");
      ("D", "21303be03915abb375159fb2f27bb074");
      ("E", "1c332fe76ae5c523cc4cb8e01be3305d");
      ("E-SSW", "f4b41adc2338310d969ed5cfadb161f6");
      ("E-DMAG", "ae3bd27d32bf53831369a49277f488d6");
      ("F-LITE", "c6892261ea704404b04e49e350f21583");
      ("OCS", "c7c266c4531a29b38f9ce67e2b8df5c1");
      ("OCS-SWAP", "e4bed9c64f91de5908c19a5a2add7c86");
      ("OCS-LITE", "4139cbc51c84c0d11a5874dc33967893");
      ("OCS-SWAP-LITE", "95c9d4d1548547f7faf6561ecb03aee3");
    ]

(* The first switch name built twice, if any. *)
let duplicate_name topo =
  let seen = Hashtbl.create (Topo.n_switches topo) in
  let dup = ref None in
  for i = 0 to Topo.n_switches topo - 1 do
    let name = (Topo.switch topo i).Switch.name in
    if Hashtbl.mem seen name then (if !dup = None then dup := Some name)
    else Hashtbl.add seen name ()
  done;
  !dup

(* The builder keeps no name table: [Gen] derives every name from a
   distinct (role, generation, dc, pod, plane, index) tuple, so no label
   of any kind builds a name twice. *)
let test_names_unique () =
  List.iter
    (fun label ->
      Alcotest.(check (option string)) (label ^ " duplicate name") None
        (duplicate_name (Gen.scenario_of_label label).Gen.topo))
    [ "A"; "B"; "C"; "D"; "E"; "E-SSW"; "E-DMAG"; "F"; "F-SSW"; "F-LITE";
      "OCS"; "OCS-SWAP"; "OCS-LITE"; "OCS-SWAP-LITE" ]

(* Small valid parameters of every kind.  [Gen.build] declares its
   switch and circuit counts to the builder before it adds one, and
   [Builder.freeze] raises unless they are exactly met, so building
   checks the count formulas against the code that adds. *)
let small_params =
  let open QCheck.Gen in
  let* kind =
    oneofl
      [ Gen.Hgrid_v1_to_v2; Gen.Ssw_forklift; Gen.Dmag; Gen.Ocs_rewire; Gen.Ocs_swap ]
  and* dcs = int_range 1 3
  and* pods = int_range 1 3
  and* rsws_per_pod = int_range 1 3
  and* planes = int_range 1 9
  and* ssws_per_plane = int_range 1 3
  and* link_mult = int_range 1 3
  and* v1 = triple (int_range 1 3) (int_range 1 9) (int_range 1 4)
  and* v2 = triple (int_range 0 3) (int_range 1 9) (int_range 1 4)
  and* boundary = triple (int_range 1 3) (int_range 1 3) (int_range 1 3)
  and* mas = int_range 0 3
  and* mesh_variants = int_range 1 3 in
  let v1_grids, v1_fadu_per_grid, v1_fauu_per_grid = v1 in
  let v2_grids, v2_fadu_per_grid, v2_fauu_per_grid = v2 in
  let ebs, drs, ebbs = boundary in
  return
    ( kind,
      {
        (Gen.params_a ()) with
        Gen.label = "random";
        dcs;
        pods;
        rsws_per_pod;
        planes;
        ssws_per_plane;
        link_mult;
        v1_grids;
        v1_fadu_per_grid;
        v1_fauu_per_grid;
        v2_grids;
        v2_fadu_per_grid;
        v2_fauu_per_grid;
        ebs;
        drs;
        ebbs;
        mas;
        mesh_variants;
      } )

let print_params (kind, (p : Gen.params)) =
  Printf.sprintf
    "%s dcs=%d pods=%d rsws=%d planes=%d ssws=%d mult=%d v1=%dx%d+%d \
     v2=%dx%d+%d ebs=%d drs=%d ebbs=%d mas=%d variants=%d"
    (Gen.kind_to_string kind) p.Gen.dcs p.Gen.pods p.Gen.rsws_per_pod
    p.Gen.planes p.Gen.ssws_per_plane p.Gen.link_mult p.Gen.v1_grids
    p.Gen.v1_fadu_per_grid p.Gen.v1_fauu_per_grid p.Gen.v2_grids
    p.Gen.v2_fadu_per_grid p.Gen.v2_fauu_per_grid p.Gen.ebs p.Gen.drs
    p.Gen.ebbs p.Gen.mas p.Gen.mesh_variants

let prop_counts_match_build =
  QCheck.Test.make ~count:200 ~name:"declared counts match every build"
    (QCheck.make ~print:print_params small_params)
    (fun (kind, p) ->
      let sc = Gen.build kind p in
      duplicate_name sc.Gen.topo = None)

(* Building allocates the universe's columns once, at their final
   length, and little besides: at most twice the words the universe
   holds ([Universe.footprint]).  Columns past 256 words skip the minor
   heap, so the count adds the direct major words, read after a full
   major cycle. *)
let test_build_allocation () =
  let words () =
    Gc.full_major ();
    let s = Gc.quick_stat () in
    Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words
  in
  List.iter
    (fun label ->
      let kind, p = Option.get (Gen.params_of_label label) in
      let before = words () in
      let sc = Gen.build kind p in
      let allocated = words () -. before in
      let held =
        List.fold_left
          (fun acc (_, bytes) -> acc + bytes)
          0
          (Universe.footprint (Topo.universe sc.Gen.topo))
        / 8
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words allocated, universe holds %d" label
           allocated held)
        true
        (allocated <= 2.0 *. float_of_int held))
    [ "C"; "E" ]

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
      Alcotest.test_case "universe digests" `Quick test_universe_digests;
      Alcotest.test_case "switch names unique" `Slow test_names_unique;
      QCheck_alcotest.to_alcotest prop_counts_match_build;
      Alcotest.test_case "build allocation" `Quick test_build_allocation;
    ] )
