open Npd_ast

let kind_id = function
  | Gen.Hgrid_v1_to_v2 -> "hgrid-v1-to-v2"
  | Gen.Ssw_forklift -> "ssw-forklift"
  | Gen.Dmag -> "dmag"
  | Gen.Ocs_rewire -> "ocs-rewire"
  | Gen.Ocs_swap -> "ocs-swap"

let kind_of_id = function
  | "hgrid-v1-to-v2" -> Ok Gen.Hgrid_v1_to_v2
  | "ssw-forklift" -> Ok Gen.Ssw_forklift
  | "dmag" -> Ok Gen.Dmag
  | "ocs-rewire" -> Ok Gen.Ocs_rewire
  | "ocs-swap" -> Ok Gen.Ocs_swap
  | other -> Error (Printf.sprintf "unknown migration kind %S" other)

let fi k v = Field (k, Int v)
let ff k v = Field (k, Float v)

let of_params kind (p : Gen.params) =
  {
    doc_name = p.Gen.label;
    sections =
      [
        {
          name = "fabric";
          args = [];
          entries =
            [
              fi "dcs" p.Gen.dcs;
              fi "pods" p.Gen.pods;
              fi "rsws_per_pod" p.Gen.rsws_per_pod;
              fi "planes" p.Gen.planes;
              fi "ssws_per_plane" p.Gen.ssws_per_plane;
              fi "link_mult" p.Gen.link_mult;
              ff "cap_rsw_fsw" p.Gen.cap_rsw_fsw;
              ff "cap_fsw_ssw" p.Gen.cap_fsw_ssw;
              ff "cap_fsw_ssw_new" p.Gen.cap_fsw_ssw_new;
              fi "fsw_port_headroom" p.Gen.fsw_port_headroom;
            ];
        };
        {
          name = "hgrid";
          args = [ ("generation", Int 1) ];
          entries =
            [
              fi "grids" p.Gen.v1_grids;
              fi "fadu_per_grid" p.Gen.v1_fadu_per_grid;
              fi "fauu_per_grid" p.Gen.v1_fauu_per_grid;
              ff "cap_ssw_fadu" p.Gen.cap_ssw_fadu_v1;
              ff "cap_ssw_fadu_new" p.Gen.cap_ssw_fadu_new;
              ff "cap_fadu_fauu" p.Gen.cap_fadu_fauu;
              ff "cap_fauu_eb" p.Gen.cap_fauu_eb;
              fi "mesh_variants" p.Gen.mesh_variants;
              fi "ssw_port_headroom" p.Gen.ssw_port_headroom;
            ];
        };
        {
          name = "hgrid";
          args = [ ("generation", Int 2) ];
          entries =
            [
              fi "grids" p.Gen.v2_grids;
              fi "fadu_per_grid" p.Gen.v2_fadu_per_grid;
              fi "fauu_per_grid" p.Gen.v2_fauu_per_grid;
              ff "cap_ssw_fadu" p.Gen.cap_ssw_fadu_v2;
            ];
        };
        {
          name = "ma";
          args = [];
          entries =
            [
              fi "count" p.Gen.mas;
              ff "cap_fauu_ma" p.Gen.cap_fauu_ma;
              ff "cap_ma_eb" p.Gen.cap_ma_eb;
            ];
        };
        { name = "eb"; args = []; entries = [ fi "count" p.Gen.ebs ] };
        {
          name = "dr";
          args = [];
          entries = [ fi "count" p.Gen.drs; ff "cap_eb_dr" p.Gen.cap_eb_dr ];
        };
        {
          name = "bb";
          args = [];
          entries = [ fi "ebbs" p.Gen.ebbs; ff "cap_dr_ebb" p.Gen.cap_dr_ebb ];
        };
        {
          name = "migration";
          args = [];
          entries = [ Field ("kind", String (kind_id kind)) ];
        };
      ];
  }

let section_arg_int section key ~default =
  match List.assoc_opt key section.args with
  | Some (Int i) -> i
  | Some _ ->
      failwith
        (Printf.sprintf "section %s: argument %s: expected integer" section.name key)
  | None -> default

(* The document's top-level sections, before any is read: each must be
   one [to_params] reads, given once, and take no argument but [hgrid]'s
   [generation], at most once and 1 or 2 (1 when absent).  Otherwise a
   second [fabric] or an unknown [fabrik] would be ignored unseen,
   [fabric planes=0] read as a plain [fabric], and an
   [hgrid generation=7] dropped.  Returns nothing; raises [Failure]
   naming the section. *)
let check_sections doc =
  let reads = [ "fabric"; "hgrid"; "ma"; "eb"; "dr"; "bb"; "migration" ] in
  ignore
    (List.fold_left
       (fun seen (s : section) ->
         if not (List.exists (String.equal s.name) reads) then
           failwith (Printf.sprintf "section %s: unknown section" s.name);
         let allowed = if String.equal s.name "hgrid" then [ "generation" ] else [] in
         ignore
           (List.fold_left
              (fun given (key, _) ->
                if not (List.exists (String.equal key) allowed) then
                  failwith
                    (Printf.sprintf "section %s: unknown argument %s" s.name key);
                if List.exists (String.equal key) given then
                  failwith
                    (Printf.sprintf "section %s: argument %s given twice" s.name key);
                key :: given)
              [] s.args);
         let label =
           if String.equal s.name "hgrid" then begin
             let g = section_arg_int s "generation" ~default:1 in
             let label = Printf.sprintf "hgrid generation=%d" g in
             if g <> 1 && g <> 2 then
               failwith
                 (Printf.sprintf "section %s: generation must be 1 or 2" label);
             label
           end
           else s.name
         in
         if List.exists (String.equal label) seen then
           failwith (Printf.sprintf "section %s: given twice" label);
         label :: seen)
       [] doc.sections)

(* The counts the generator divides by, sizes arrays with or needs at
   least one of for every class to route, and [link_mult], whose raw
   value sizes the SSW and FSW port budgets while at least one circuit
   is wired per link (at [link_mult = -3], A's original topology breaks
   16 port bounds).  The port headrooms may be 0 but not negative (at
   [ssw_port_headroom = -3], A's original topology breaks 8 port
   bounds), and a grid needs at least one meshing pattern.  A
   generation-2 grid's per-grid counts matter only when there is such a
   grid, and a region may have no MA layer and no generation-2 grid. *)
let validate_counts (p : Gen.params) =
  let check section key v ~min =
    if v < min then
      failwith
        (Printf.sprintf "section %s: %s = %d, must be %s" section key v
           (if min > 0 then "positive" else "non-negative"))
  in
  let positive section key v = check section key v ~min:1 in
  positive "fabric" "dcs" p.Gen.dcs;
  positive "fabric" "pods" p.Gen.pods;
  positive "fabric" "rsws_per_pod" p.Gen.rsws_per_pod;
  positive "fabric" "planes" p.Gen.planes;
  positive "fabric" "ssws_per_plane" p.Gen.ssws_per_plane;
  positive "fabric" "link_mult" p.Gen.link_mult;
  check "fabric" "fsw_port_headroom" p.Gen.fsw_port_headroom ~min:0;
  positive "hgrid generation=1" "grids" p.Gen.v1_grids;
  positive "hgrid generation=1" "fadu_per_grid" p.Gen.v1_fadu_per_grid;
  positive "hgrid generation=1" "fauu_per_grid" p.Gen.v1_fauu_per_grid;
  positive "hgrid generation=1" "mesh_variants" p.Gen.mesh_variants;
  check "hgrid generation=1" "ssw_port_headroom" p.Gen.ssw_port_headroom ~min:0;
  check "hgrid generation=2" "grids" p.Gen.v2_grids ~min:0;
  if p.Gen.v2_grids > 0 then begin
    positive "hgrid generation=2" "fadu_per_grid" p.Gen.v2_fadu_per_grid;
    positive "hgrid generation=2" "fauu_per_grid" p.Gen.v2_fauu_per_grid
  end;
  check "ma" "count" p.Gen.mas ~min:0;
  positive "eb" "count" p.Gen.ebs;
  positive "dr" "count" p.Gen.drs;
  positive "bb" "ebbs" p.Gen.ebbs

(* Every capacity of a layer the region has must be positive and finite:
   an infinite capacity reads zero utilization under any load, so A's
   document with [cap_rsw_fsw = 1e999] would check clean, and a negative
   one would reach the builder, whose error names no field.  Layers
   follow the counts: the generation-2 stripe exists when there is a
   generation-2 grid, the MA layer when there are MAs, and the
   forklift's new links only for an SSW forklift. *)
let validate_capacities kind (p : Gen.params) =
  let forklift = match kind with Gen.Ssw_forklift -> true | _ -> false in
  let v2 = p.Gen.v2_grids > 0 and ma = p.Gen.mas > 0 in
  List.iter
    (fun (layer, section, key, v) ->
      if layer && not (v > 0.0 && Float.is_finite v) then
        failwith
          (Printf.sprintf "section %s: %s = %g, must be positive and finite"
             section key v))
    [
      (true, "fabric", "cap_rsw_fsw", p.Gen.cap_rsw_fsw);
      (true, "fabric", "cap_fsw_ssw", p.Gen.cap_fsw_ssw);
      (forklift, "fabric", "cap_fsw_ssw_new", p.Gen.cap_fsw_ssw_new);
      (true, "hgrid generation=1", "cap_ssw_fadu", p.Gen.cap_ssw_fadu_v1);
      (forklift, "hgrid generation=1", "cap_ssw_fadu_new", p.Gen.cap_ssw_fadu_new);
      (true, "hgrid generation=1", "cap_fadu_fauu", p.Gen.cap_fadu_fauu);
      (true, "hgrid generation=1", "cap_fauu_eb", p.Gen.cap_fauu_eb);
      (v2, "hgrid generation=2", "cap_ssw_fadu", p.Gen.cap_ssw_fadu_v2);
      (ma, "ma", "cap_fauu_ma", p.Gen.cap_fauu_ma);
      (ma, "ma", "cap_ma_eb", p.Gen.cap_ma_eb);
      (true, "dr", "cap_eb_dr", p.Gen.cap_eb_dr);
      (true, "bb", "cap_dr_ebb", p.Gen.cap_dr_ebb);
    ]

(* A section's entries, under the label its errors use, once [to_params]
   has read its fields: [read] holds every (section, key) pair it read.
   A field it did not read would silently leave its default in place
   (A's [cap_ssw_fadu] renamed [cap_ssw_fadu_v1] reads the default 0.4,
   ten times the document's 0.04), a repeated one would let its first
   copy win unseen, and nothing reads a subsection, so all three are
   refused. *)
let check_entries label (section : section) ~read =
  ignore
    (List.fold_left
       (fun seen entry ->
         match entry with
         | Field (key, _) ->
             if
               not
                 (List.exists
                    (fun (s, k) -> s == section && String.equal k key)
                    read)
             then failwith (Printf.sprintf "section %s: unknown field %s" label key);
             if List.exists (String.equal key) seen then
               failwith (Printf.sprintf "section %s: field %s given twice" label key);
             key :: seen
         | Section sub ->
             failwith
               (Printf.sprintf "section %s: unexpected subsection %s" label
                  sub.name))
       [] section.entries)

let to_params doc =
  try
    check_sections doc;
    let require name =
      match find_section doc name with
      | Some s -> s
      | None -> failwith (Printf.sprintf "missing required section %S" name)
    in
    let fabric = require "fabric" in
    let hgrids = find_sections doc "hgrid" in
    let hgrid generation =
      match
        List.find_opt
          (fun s -> section_arg_int s "generation" ~default:1 = generation)
          hgrids
      with
      | Some s -> s
      | None ->
          failwith (Printf.sprintf "missing hgrid generation=%d" generation)
    in
    let h1 = hgrid 1 and h2 = hgrid 2 in
    let ma =
      Option.value (find_section doc "ma")
        ~default:{ name = "ma"; args = []; entries = [] }
    in
    let eb = require "eb" and dr = require "dr" and bb = require "bb" in
    let migration = require "migration" in
    let read = ref [] in
    let note s key = read := (s, key) :: !read in
    let int_field s key ~default = note s key; int_field s key ~default in
    let float_field s key ~default = note s key; float_field s key ~default in
    let string_field s key ~default = note s key; string_field s key ~default in
    let kind =
      match kind_of_id (string_field migration "kind" ~default:"") with
      | Ok k -> k
      | Error e -> failwith e
    in
    let p =
      {
        Gen.label = doc.doc_name;
        dcs = int_field fabric "dcs" ~default:1;
        pods = int_field fabric "pods" ~default:1;
        rsws_per_pod = int_field fabric "rsws_per_pod" ~default:1;
        planes = int_field fabric "planes" ~default:4;
        ssws_per_plane = int_field fabric "ssws_per_plane" ~default:1;
        link_mult = int_field fabric "link_mult" ~default:1;
        cap_rsw_fsw = float_field fabric "cap_rsw_fsw" ~default:0.1;
        cap_fsw_ssw = float_field fabric "cap_fsw_ssw" ~default:0.4;
        cap_fsw_ssw_new = float_field fabric "cap_fsw_ssw_new" ~default:0.5;
        fsw_port_headroom = int_field fabric "fsw_port_headroom" ~default:4;
        v1_grids = int_field h1 "grids" ~default:1;
        v1_fadu_per_grid = int_field h1 "fadu_per_grid" ~default:4;
        v1_fauu_per_grid = int_field h1 "fauu_per_grid" ~default:2;
        cap_ssw_fadu_v1 = float_field h1 "cap_ssw_fadu" ~default:0.4;
        cap_ssw_fadu_new = float_field h1 "cap_ssw_fadu_new" ~default:0.5;
        cap_fadu_fauu = float_field h1 "cap_fadu_fauu" ~default:2.0;
        cap_fauu_eb = float_field h1 "cap_fauu_eb" ~default:1.2;
        mesh_variants = int_field h1 "mesh_variants" ~default:2;
        ssw_port_headroom = int_field h1 "ssw_port_headroom" ~default:1;
        v2_grids = int_field h2 "grids" ~default:1;
        v2_fadu_per_grid = int_field h2 "fadu_per_grid" ~default:4;
        v2_fauu_per_grid = int_field h2 "fauu_per_grid" ~default:2;
        cap_ssw_fadu_v2 = float_field h2 "cap_ssw_fadu" ~default:0.4;
        mas = int_field ma "count" ~default:0;
        cap_fauu_ma = float_field ma "cap_fauu_ma" ~default:1.2;
        cap_ma_eb = float_field ma "cap_ma_eb" ~default:2.4;
        ebs = int_field eb "count" ~default:2;
        drs = int_field dr "count" ~default:1;
        cap_eb_dr = float_field dr "cap_eb_dr" ~default:6.4;
        ebbs = int_field bb "ebbs" ~default:1;
        cap_dr_ebb = float_field bb "cap_dr_ebb" ~default:12.8;
      }
    in
    List.iter
      (fun (label, s) -> check_entries label s ~read:!read)
      [
        ("fabric", fabric);
        ("hgrid generation=1", h1);
        ("hgrid generation=2", h2);
        ("ma", ma);
        ("eb", eb);
        ("dr", dr);
        ("bb", bb);
        ("migration", migration);
      ];
    validate_counts p;
    validate_capacities kind p;
    Ok (kind, p)
  with Failure msg -> Error msg

let to_scenario doc =
  match to_params doc with
  | Error _ as e -> e
  | Ok (kind, p) -> (
      match Gen.build kind p with
      | scenario -> Ok scenario
      | exception Invalid_argument msg -> Error msg)

let load_scenario path =
  match Npd_parser.parse_file path with
  | Error _ as e -> e
  | Ok doc -> to_scenario doc
