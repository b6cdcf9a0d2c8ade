(* Tests for the NPD format: lexer, parser, printer and conversion. *)

let test_lexer_tokens () =
  let lx = Npd_lexer.create "npd \"x\" { a = 1 b = 2.5 c = \"s\" d = true }" in
  let rec drain acc =
    match Npd_lexer.next lx with
    | Npd_lexer.Eof, _ -> List.rev acc
    | t, _ -> drain (t :: acc)
  in
  Alcotest.(check int) "token count" 16 (List.length (drain []))

let test_lexer_comments_and_escapes () =
  let lx = Npd_lexer.create "# comment\nname # trailing\n\"a\\nb\\\"c\"" in
  (match Npd_lexer.next lx with
  | Npd_lexer.Ident "name", _ -> ()
  | _ -> Alcotest.fail "expected ident");
  match Npd_lexer.next lx with
  | Npd_lexer.String_lit s, _ -> Alcotest.(check string) "escapes" "a\nb\"c" s
  | _ -> Alcotest.fail "expected string"

let test_lexer_numbers () =
  let lx = Npd_lexer.create "42 -17 3.5 -0.25 1e3" in
  let expect_token expected =
    let t, _ = Npd_lexer.next lx in
    Alcotest.(check string) "token" expected (Npd_lexer.token_to_string t)
  in
  expect_token "integer 42";
  expect_token "integer -17";
  expect_token "float 3.5";
  expect_token "float -0.25";
  expect_token "float 1000"

let test_lexer_errors () =
  let lx = Npd_lexer.create "\"unterminated" in
  (match Npd_lexer.next lx with
  | exception Npd_lexer.Lex_error (_, _) -> ()
  | _ -> Alcotest.fail "unterminated string accepted");
  let lx2 = Npd_lexer.create "@" in
  match Npd_lexer.next lx2 with
  | exception Npd_lexer.Lex_error (msg, pos) ->
      Alcotest.(check int) "line" 1 pos.Npd_lexer.line;
      Alcotest.(check bool) "message mentions char" true (String.length msg > 0)
  | _ -> Alcotest.fail "stray character accepted"

(* Text the number scan accepts but no number parses: a typed error at
   the token's start, not [Failure "float_of_string"]. *)
let test_lexer_malformed_numbers () =
  List.iter
    (fun text ->
      let lx = Npd_lexer.create ("  " ^ text ^ " ") in
      match Npd_lexer.next lx with
      | exception Npd_lexer.Lex_error (msg, pos) ->
          Alcotest.(check int) (text ^ ": column") 3 pos.Npd_lexer.column;
          Alcotest.(check string) (text ^ ": message")
            (Printf.sprintf "malformed number %S" text)
            msg
      | t, _ ->
          Alcotest.fail
            (Printf.sprintf "%S lexed as %s" text (Npd_lexer.token_to_string t)))
    [ "-"; "1e"; "-."; "1e+"; "-e5" ];
  match Npd_parser.parse_result "npd \"r\" { fabric { dcs = - } }" with
  | Error e ->
      Alcotest.(check string) "parse_result names the place"
        "line 1, column 26: malformed number \"-\"" e
  | Ok _ -> Alcotest.fail "dcs = - accepted"

let test_parser_minimal () =
  match Npd_parser.parse_result "npd \"r\" { eb { count = 4 } }" with
  | Ok doc ->
      Alcotest.(check string) "doc name" "r" doc.Npd_ast.doc_name;
      (match Npd_ast.find_section doc "eb" with
      | Some s -> Alcotest.(check int) "field" 4 (Npd_ast.int_field s "count" ~default:0)
      | None -> Alcotest.fail "missing section")
  | Error e -> Alcotest.fail e

let test_parser_nested_and_args () =
  let src =
    "npd \"r\" { hgrid generation=2 mesh=1 { grids = 3 inner { x = true } } }"
  in
  match Npd_parser.parse_result src with
  | Ok doc -> (
      match Npd_ast.find_section doc "hgrid" with
      | Some s ->
          Alcotest.(check int) "two args" 2 (List.length s.Npd_ast.args);
          Alcotest.(check int) "entries" 2 (List.length s.Npd_ast.entries)
      | None -> Alcotest.fail "missing hgrid")
  | Error e -> Alcotest.fail e

let test_parser_error_positions () =
  match Npd_parser.parse_result "npd \"r\" {\n  fabric {\n    a = = \n} }" with
  | Error msg ->
      Alcotest.(check bool) "mentions line 3" true
        (String.length msg > 0
        &&
        let prefix = "line 3" in
        String.length msg >= String.length prefix
        && String.sub msg 0 (String.length prefix) = prefix)
  | Ok _ -> Alcotest.fail "bad document accepted"

let test_parser_rejects_trailing () =
  match Npd_parser.parse_result "npd \"r\" { } garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing input accepted"

let test_printer_roundtrip_fixed () =
  let doc = Npd_convert.of_params Gen.Hgrid_v1_to_v2 (Gen.params_a ()) in
  match Npd_parser.parse_result (Npd_printer.to_string doc) with
  | Ok doc' -> Alcotest.(check bool) "roundtrip" true (Npd_ast.equal doc doc')
  | Error e -> Alcotest.fail e

(* Random-document printer/parser roundtrip. *)
let gen_value =
  QCheck.Gen.oneof
    [
      QCheck.Gen.map (fun i -> Npd_ast.Int i) QCheck.Gen.small_signed_int;
      QCheck.Gen.map (fun f -> Npd_ast.Float f) (QCheck.Gen.float_bound_inclusive 1000.0);
      QCheck.Gen.map (fun b -> Npd_ast.Bool b) QCheck.Gen.bool;
      QCheck.Gen.map
        (fun s -> Npd_ast.String s)
        (QCheck.Gen.string_size ~gen:(QCheck.Gen.char_range 'a' 'z')
           (QCheck.Gen.int_range 0 8));
    ]

let gen_ident =
  QCheck.Gen.map
    (fun s -> "k" ^ s)
    (QCheck.Gen.string_size ~gen:(QCheck.Gen.char_range 'a' 'z')
       (QCheck.Gen.int_range 0 6))

let rec gen_section depth =
  let open QCheck.Gen in
  let* name = gen_ident in
  let* args = list_size (int_range 0 2) (pair gen_ident gen_value) in
  let* entries =
    list_size (int_range 0 4)
      (if depth = 0 then map (fun (k, v) -> Npd_ast.Field (k, v)) (pair gen_ident gen_value)
       else
         frequency
           [
             (3, map (fun (k, v) -> Npd_ast.Field (k, v)) (pair gen_ident gen_value));
             (1, map (fun s -> Npd_ast.Section s) (gen_section (depth - 1)));
           ])
  in
  return { Npd_ast.name; args; entries }

let gen_doc =
  let open QCheck.Gen in
  let* doc_name =
    QCheck.Gen.string_size ~gen:(QCheck.Gen.char_range 'a' 'z')
      (QCheck.Gen.int_range 0 10)
  in
  let* sections = list_size (int_range 0 4) (gen_section 2) in
  return { Npd_ast.doc_name; sections }

let prop_print_parse_roundtrip =
  QCheck.Test.make ~count:200 ~name:"printer/parser round trip"
    (QCheck.make gen_doc) (fun doc ->
      match Npd_parser.parse_result (Npd_printer.to_string doc) with
      | Ok doc' -> Npd_ast.equal doc doc'
      | Error _ -> false)

(* Single-byte edits of each kind's A document come back from the
   parser and from [Npd_convert.to_params] as a result, never an
   exception.  The scenario is not built: an edited count can ask [Gen]
   for a topology too large to build.  Most edits write a byte of a
   number, where the scan and the conversions meet. *)
let a_documents =
  List.map
    (fun kind ->
      Npd_printer.to_string (Npd_convert.of_params kind (Gen.params_a ())))
    [ Gen.Hgrid_v1_to_v2; Gen.Ssw_forklift; Gen.Dmag; Gen.Ocs_rewire ]

let gen_single_byte_edit =
  let open QCheck.Gen in
  let* doc = oneofl a_documents in
  let* at = int_bound (String.length doc - 1) in
  let* byte =
    frequency
      [ (3, oneofl [ '-'; '+'; '.'; 'e'; 'E'; '0'; '9' ]); (1, char) ]
  in
  let keep n = String.sub doc 0 n and from n = String.sub doc n (String.length doc - n) in
  oneofl
    [
      keep at ^ String.make 1 byte ^ from (at + 1);
      keep at ^ String.make 1 byte ^ from at;
      keep at ^ from (at + 1);
    ]

let prop_single_byte_edits =
  QCheck.Test.make ~count:3000 ~name:"single-byte edits of A never raise"
    (QCheck.make ~print:Fun.id gen_single_byte_edit) (fun src ->
      match Npd_parser.parse_result src with
      | Error _ -> true
      | Ok doc -> (
          match Npd_convert.to_params doc with Ok _ | Error _ -> true))

let test_convert_roundtrip_all () =
  List.iter
    (fun (kind, params) ->
      let doc = Npd_convert.of_params kind params in
      match Npd_convert.to_params doc with
      | Ok (kind', params') ->
          Alcotest.(check bool) "kind" true (kind = kind');
          Alcotest.(check bool) "params" true (params = params')
      | Error e -> Alcotest.fail e)
    [
      (Gen.Hgrid_v1_to_v2, Gen.params_a ());
      (Gen.Ssw_forklift, Gen.params_b ());
      (Gen.Dmag, { (Gen.params_a ()) with Gen.mas = 6 });
    ]

(* Every label of the shared table survives [klotski gen]'s path: the
   NPD written from its kind and params parses back to both; the small
   tiers also rebuild the scenario [Gen.scenario_of_label] builds. *)
let test_label_table_roundtrip () =
  List.iter
    (fun label ->
      match Gen.params_of_label label with
      | None -> Alcotest.fail (label ^ ": missing from the label table")
      | Some (kind, params) -> (
          let doc = Npd_convert.of_params kind params in
          (match Npd_convert.to_params doc with
          | Ok (kind', params') ->
              Alcotest.(check bool) (label ^ " kind") true (kind = kind');
              Alcotest.(check bool) (label ^ " params") true (params = params')
          | Error e -> Alcotest.fail e);
          if List.mem label [ "A"; "OCS-LITE"; "OCS-SWAP-LITE" ] then
            match Npd_convert.to_scenario doc with
            | Ok sc ->
                let reference = Gen.scenario_of_label label in
                Alcotest.(check string) (label ^ " scenario") reference.Gen.name
                  sc.Gen.name;
                Alcotest.(check int) (label ^ " actions")
                  (Gen.stats reference).Gen.actions (Gen.stats sc).Gen.actions
            | Error e -> Alcotest.fail e))
    [
      "A"; "B"; "C"; "D"; "E"; "E-SSW"; "E-DMAG"; "F"; "F-SSW"; "F-LITE";
      "OCS"; "OCS-LITE"; "OCS-SWAP"; "OCS-SWAP-LITE";
    ];
  Alcotest.(check bool) "unknown label" true (Gen.params_of_label "Z" = None)

let test_convert_missing_section () =
  match Npd_convert.to_params { Npd_ast.doc_name = "x"; sections = [] } with
  | Error msg ->
      Alcotest.(check bool) "names the section" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "empty document accepted"

let test_to_scenario () =
  let doc = Npd_convert.of_params Gen.Hgrid_v1_to_v2 (Gen.params_a ()) in
  match Npd_convert.to_scenario doc with
  | Ok sc ->
      let reference = Gen.stats (Gen.scenario_of_label "A") in
      let st = Gen.stats sc in
      Alcotest.(check int) "same switches" reference.Gen.orig_switches
        st.Gen.orig_switches;
      Alcotest.(check int) "same actions" reference.Gen.actions st.Gen.actions
  | Error e -> Alcotest.fail e

let test_load_scenario_file () =
  let path = Filename.temp_file "npd_test" ".npd" in
  let doc = Npd_convert.of_params Gen.Hgrid_v1_to_v2 (Gen.params_a ()) in
  (match Npd_printer.write_file path doc with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Npd_convert.load_scenario path with
  | Ok sc -> Alcotest.(check string) "name" "A/HGRID V1->V2" sc.Gen.name
  | Error e -> Alcotest.fail e);
  Sys.remove path;
  match Npd_convert.load_scenario "/nonexistent/file.npd" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file accepted"

let test_field_accessors () =
  let section =
    {
      Npd_ast.name = "s";
      args = [];
      entries =
        [
          Npd_ast.Field ("i", Npd_ast.Int 3);
          Npd_ast.Field ("f", Npd_ast.Float 2.0);
          Npd_ast.Field ("s", Npd_ast.String "v");
        ];
    }
  in
  Alcotest.(check int) "int" 3 (Npd_ast.int_field section "i" ~default:0);
  Alcotest.(check int) "float as int" 2 (Npd_ast.int_field section "f" ~default:0);
  Alcotest.(check int) "default" 9 (Npd_ast.int_field section "missing" ~default:9);
  Alcotest.check (Alcotest.float 1e-9) "int as float" 3.0
    (Npd_ast.float_field section "i" ~default:0.0);
  Alcotest.(check string) "string" "v" (Npd_ast.string_field section "s" ~default:"");
  match Npd_ast.int_field section "s" ~default:0 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "string accepted as int"

(* [doc] (default: A's document) with the entries of one section
   rewritten by [f]; [generation] picks the hgrid section. *)
let with_entries ?doc ?generation section f =
  let doc =
    match doc with
    | Some d -> d
    | None -> Npd_convert.of_params Gen.Hgrid_v1_to_v2 (Gen.params_a ())
  in
  let here (s : Npd_ast.section) =
    String.equal s.Npd_ast.name section
    &&
    match (generation, List.assoc_opt "generation" s.Npd_ast.args) with
    | None, _ -> true
    | Some g, Some (Npd_ast.Int g') -> g = g'
    | Some _, _ -> false
  in
  {
    doc with
    Npd_ast.sections =
      List.map
        (fun s -> if here s then { s with Npd_ast.entries = f s.Npd_ast.entries } else s)
        doc.Npd_ast.sections;
  }

(* [doc] with field [key] of one section set to [v]. *)
let with_field ?doc ?generation section key v =
  with_entries ?doc ?generation section
    (List.map (function
      | Npd_ast.Field (k, _) when String.equal k key -> Npd_ast.Field (k, v)
      | e -> e))

let contains msg sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length msg && (String.equal (String.sub msg i n) sub || at (i + 1))
  in
  at 0

(* [to_params] and [to_scenario] both return an [Error] naming the
   section and the field: the generator never sees the count. *)
let refused what ~section key doc =
  List.iter
    (fun (stage, r) ->
      match r with
      | Ok () -> Alcotest.failf "%s: %s accepted" what stage
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s names section and field (%s)" what stage msg)
            true
            (contains msg ("section " ^ section) && contains msg key))
    [
      ("to_params", Result.map ignore (Npd_convert.to_params doc));
      ("to_scenario", Result.map ignore (Npd_convert.to_scenario doc));
    ]

let accepted what doc =
  match Npd_convert.to_scenario doc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s refused: %s" what e

let section_label ?generation section =
  match generation with
  | None -> section
  | Some g -> Printf.sprintf "%s generation=%d" section g

(* One case per count the generator needs: 0 and a negative count are
   refused.  [A] has five generation-2 grids, so their per-grid counts
   are needed; with no generation-2 grid they are not. *)
let count_case ?generation section key =
  let label = section_label ?generation section in
  Alcotest.test_case
    (Printf.sprintf "non-positive %s %s refused" label key)
    `Quick
    (fun () ->
      List.iter
        (fun v ->
          refused
            (Printf.sprintf "%s = %d" key v)
            ~section:label key
            (with_field ?generation section key (Npd_ast.Int v)))
        [ 0; -3 ];
      if generation = Some 2 then
        let doc = with_field ~generation:2 "hgrid" "grids" (Npd_ast.Int 0) in
        accepted
          (key ^ " = 0 with no generation-2 grid")
          (with_field ~doc ~generation:2 "hgrid" key (Npd_ast.Int 0)))

(* Counts that may be 0 (a region without an MA layer or a
   generation-2 grid) but not negative. *)
let nonneg_case ?generation section key =
  let label = section_label ?generation section in
  Alcotest.test_case
    (Printf.sprintf "negative %s %s refused, 0 accepted" label key)
    `Quick
    (fun () ->
      accepted (key ^ " = 0") (with_field ?generation section key (Npd_ast.Int 0));
      refused (key ^ " = -3") ~section:label key
        (with_field ?generation section key (Npd_ast.Int (-3))))

(* One case per capacity: 0, a negative, an infinite and a NaN capacity
   are refused on a document whose region has the layer ([doc]), naming
   the section and the field.  [absent] is a document whose region lacks
   the layer, where the field is not read. *)
let cap_case ?doc ?absent ?generation section key =
  let label = section_label ?generation section in
  Alcotest.test_case
    (Printf.sprintf "bad %s %s refused" label key)
    `Quick
    (fun () ->
      List.iter
        (fun v ->
          let doc = with_field ?doc ?generation section key (Npd_ast.Float v) in
          refused (Printf.sprintf "%s = %g" key v) ~section:label key doc;
          match Npd_convert.to_params doc with
          | Error msg ->
              Alcotest.(check bool) msg true
                (contains msg "must be positive and finite")
          | Ok _ -> ())
        [ 0.0; -1.0; infinity; neg_infinity; nan ];
      Option.iter
        (fun doc ->
          accepted
            (key ^ " = -1 where the layer is absent")
            (with_field ~doc ?generation section key (Npd_ast.Float (-1.0))))
        absent)

(* A field the converter does not read would leave its default in
   place: renaming A's [cap_ssw_fadu] (0.04) to [cap_ssw_fadu_v1] used to
   plan with the default 0.4.  It is refused, naming the section and the
   field, as is a field given twice (the first copy used to win). *)
let test_unknown_field () =
  let rename = function
    | Npd_ast.Field ("cap_ssw_fadu", v) -> Npd_ast.Field ("cap_ssw_fadu_v1", v)
    | e -> e
  in
  refused "renamed cap_ssw_fadu" ~section:"hgrid generation=1" "cap_ssw_fadu_v1"
    (with_entries ~generation:1 "hgrid" (List.map rename));
  refused "a generation-1 field in generation 2" ~section:"hgrid generation=2"
    "mesh_variants"
    (with_entries ~generation:2 "hgrid" (fun es ->
         es @ [ Npd_ast.Field ("mesh_variants", Npd_ast.Int 2) ]));
  refused "unknown migration field" ~section:"migration" "planner"
    (with_entries "migration" (fun es ->
         es @ [ Npd_ast.Field ("planner", Npd_ast.String "astar") ]))

let test_repeated_field () =
  refused "dcs twice" ~section:"fabric" "dcs"
    (with_entries "fabric" (fun es -> es @ [ Npd_ast.Field ("dcs", Npd_ast.Int 2) ]));
  refused "cap_ssw_fadu twice" ~section:"hgrid generation=2" "cap_ssw_fadu"
    (with_entries ~generation:2 "hgrid" (fun es ->
         Npd_ast.Field ("cap_ssw_fadu", Npd_ast.Float 0.4) :: es));
  (* The same name in two sections is two fields. *)
  accepted "count in eb and dr" (with_entries "eb" Fun.id)

(* Nothing reads a subsection, so its values would be ignored: one
   nested in a section the converter reads is refused, naming both. *)
let test_subsection () =
  let sub name = Npd_ast.Section { Npd_ast.name; args = []; entries = [] } in
  let fabric_hgrid = with_entries "fabric" (fun es -> es @ [ sub "hgrid" ]) in
  refused "hgrid inside fabric" ~section:"fabric" "hgrid" fabric_hgrid;
  Alcotest.(check (result reject string))
    "message" (Error "section fabric: unexpected subsection hgrid")
    (Result.map ignore (Npd_convert.to_params fabric_hgrid));
  refused "subsection inside hgrid generation=2" ~section:"hgrid generation=2"
    "grids"
    (with_entries ~generation:2 "hgrid" (fun es -> sub "grids" :: es))

(* The converter reads a fixed set of top-level sections, each once,
   and no section argument but [hgrid]'s [generation].  Anything else
   used to be ignored unseen: a second [fabric] (the first won), an
   unknown [fabrik], [fabric planes=0] (read as a plain [fabric]) and an
   [hgrid generation=7].  Each is refused, naming the section. *)
let with_sections f =
  let doc = Npd_convert.of_params Gen.Hgrid_v1_to_v2 (Gen.params_a ()) in
  { doc with Npd_ast.sections = f doc.Npd_ast.sections }

let section ?(args = []) name entries = { Npd_ast.name; args; entries }

let int_entry key v = Npd_ast.Field (key, Npd_ast.Int v)

let generation g = [ ("generation", Npd_ast.Int g) ]

let test_unknown_section () =
  refused "an unknown fabrik" ~section:"fabrik" "unknown section"
    (with_sections (fun ss -> ss @ [ section "fabrik" [ int_entry "dcs" 3 ] ]));
  Alcotest.(check (result reject string))
    "message" (Error "section fabrik: unknown section")
    (Result.map ignore
       (Npd_convert.to_params
          (with_sections (fun ss -> section "fabrik" [] :: ss))))

let test_repeated_section () =
  refused "a second fabric" ~section:"fabric" "given twice"
    (with_sections (fun ss ->
         ss @ [ section "fabric" [ int_entry "dcs" 9; int_entry "planes" 0 ] ]));
  refused "a second hgrid generation=1" ~section:"hgrid generation=1" "given twice"
    (with_sections (fun ss ->
         ss @ [ section ~args:(generation 1) "hgrid" [ int_entry "grids" 0 ] ]));
  refused "an hgrid without generation beside generation 1"
    ~section:"hgrid generation=1" "given twice"
    (with_sections (fun ss -> ss @ [ section "hgrid" [] ]));
  refused "a second migration" ~section:"migration" "given twice"
    (with_sections (fun ss -> ss @ [ section "migration" [] ]))

let test_section_arguments () =
  let fabric_args args =
    with_sections
      (List.map (fun (s : Npd_ast.section) ->
           if String.equal s.Npd_ast.name "fabric" then { s with Npd_ast.args } else s))
  in
  refused "fabric planes=0" ~section:"fabric" "unknown argument planes"
    (fabric_args [ ("planes", Npd_ast.Int 0) ]);
  refused "hgrid generation=7" ~section:"hgrid generation=7"
    "generation must be 1 or 2"
    (with_sections (fun ss ->
         ss @ [ section ~args:(generation 7) "hgrid" [ int_entry "grids" 0 ] ]));
  refused "hgrid generation=0" ~section:"hgrid generation=0"
    "generation must be 1 or 2"
    (with_sections (fun ss -> section ~args:(generation 0) "hgrid" [] :: ss));
  let hgrid2 args =
    with_sections
      (List.map (fun (s : Npd_ast.section) ->
           match List.assoc_opt "generation" s.Npd_ast.args with
           | Some (Npd_ast.Int 2) -> { s with Npd_ast.args }
           | _ -> s))
  in
  refused "generation given twice" ~section:"hgrid" "argument generation given twice"
    (hgrid2 (generation 2 @ generation 2));
  refused "a string generation" ~section:"hgrid" "argument generation"
    (hgrid2 [ ("generation", Npd_ast.String "2") ]);
  refused "an hgrid argument other than generation" ~section:"hgrid"
    "unknown argument grids"
    (hgrid2 (generation 2 @ [ ("grids", Npd_ast.Int 5) ]));
  (* An hgrid without [generation] is generation 1. *)
  accepted "generation 1 left implicit"
    (with_sections
       (List.map (fun (s : Npd_ast.section) ->
            match List.assoc_opt "generation" s.Npd_ast.args with
            | Some (Npd_ast.Int 1) -> { s with Npd_ast.args = [] }
            | _ -> s)))

let ssw_doc () = Npd_convert.of_params Gen.Ssw_forklift (Gen.params_a ())
let dmag_doc () =
  Npd_convert.of_params Gen.Dmag { (Gen.params_a ()) with Gen.mas = 2 }
let a_doc () = Npd_convert.of_params Gen.Hgrid_v1_to_v2 (Gen.params_a ())
let no_v2_doc () = with_field ~generation:2 "hgrid" "grids" (Npd_ast.Int 0)

(* An integral float past the int range is refused by [int_field], not
   truncated through [int_of_float]; the largest float below 2^62 is
   still an int. *)
let test_int_field_range () =
  let big = Npd_ast.Float 99999999999999999999999.0 in
  (match Npd_convert.to_scenario (with_field "fabric" "dcs" big) with
  | Ok _ -> Alcotest.fail "dcs = 1e23 accepted"
  | Error msg ->
      Alcotest.(check bool) ("names the field: " ^ msg) true (contains msg "dcs"));
  let section v =
    { Npd_ast.name = "s"; args = []; entries = [ Npd_ast.Field ("n", v) ] }
  in
  List.iter
    (fun f ->
      match Npd_ast.int_field (section (Npd_ast.Float f)) "n" ~default:0 with
      | exception Failure _ -> ()
      | n -> Alcotest.failf "%.0f read as %d" f n)
    [ 4611686018427387904.0; -4611686018427387905.0 *. 2.0; 1e23; -1e23 ];
  Alcotest.(check int) "2^62 - 512 is an int" (max_int - 511)
    (Npd_ast.int_field (section (Npd_ast.Float 4611686018427387392.0)) "n" ~default:0);
  Alcotest.(check int) "-2^62 is an int" min_int
    (Npd_ast.int_field (section (Npd_ast.Float (-4611686018427387904.0))) "n" ~default:0)

let suite =
  ( "npd",
    [
      Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
      Alcotest.test_case "lexer comments and escapes" `Quick
        test_lexer_comments_and_escapes;
      Alcotest.test_case "lexer numbers" `Quick test_lexer_numbers;
      Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
      Alcotest.test_case "parser minimal document" `Quick test_parser_minimal;
      Alcotest.test_case "parser nesting and args" `Quick
        test_parser_nested_and_args;
      Alcotest.test_case "parser error positions" `Quick
        test_parser_error_positions;
      Alcotest.test_case "parser rejects trailing input" `Quick
        test_parser_rejects_trailing;
      Alcotest.test_case "printer round trip (fixed)" `Quick
        test_printer_roundtrip_fixed;
      QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
      Alcotest.test_case "convert round trips" `Quick test_convert_roundtrip_all;
      Alcotest.test_case "convert missing sections" `Quick
        test_convert_missing_section;
      Alcotest.test_case "label table round trip" `Quick
        test_label_table_roundtrip;
      Alcotest.test_case "document to scenario" `Quick test_to_scenario;
      Alcotest.test_case "file loading" `Quick test_load_scenario_file;
      Alcotest.test_case "field accessors" `Quick test_field_accessors;
      Alcotest.test_case "integral float outside the int range" `Quick
        test_int_field_range;
      count_case "fabric" "dcs";
      count_case "fabric" "pods";
      count_case "fabric" "rsws_per_pod";
      count_case "fabric" "planes";
      count_case "fabric" "ssws_per_plane";
      count_case "fabric" "link_mult";
      count_case ~generation:1 "hgrid" "grids";
      count_case ~generation:1 "hgrid" "fadu_per_grid";
      count_case ~generation:1 "hgrid" "fauu_per_grid";
      nonneg_case ~generation:2 "hgrid" "grids";
      count_case ~generation:2 "hgrid" "fadu_per_grid";
      count_case ~generation:2 "hgrid" "fauu_per_grid";
      nonneg_case "ma" "count";
      count_case "eb" "count";
      count_case "dr" "count";
      count_case "bb" "ebbs";
      nonneg_case "fabric" "fsw_port_headroom";
      count_case ~generation:1 "hgrid" "mesh_variants";
      nonneg_case ~generation:1 "hgrid" "ssw_port_headroom";
      cap_case "fabric" "cap_rsw_fsw";
      cap_case "fabric" "cap_fsw_ssw";
      cap_case ~doc:(ssw_doc ()) ~absent:(a_doc ()) "fabric" "cap_fsw_ssw_new";
      cap_case ~generation:1 "hgrid" "cap_ssw_fadu";
      cap_case ~doc:(ssw_doc ()) ~absent:(a_doc ()) ~generation:1 "hgrid"
        "cap_ssw_fadu_new";
      cap_case ~generation:1 "hgrid" "cap_fadu_fauu";
      cap_case ~generation:1 "hgrid" "cap_fauu_eb";
      cap_case ~absent:(no_v2_doc ()) ~generation:2 "hgrid" "cap_ssw_fadu";
      cap_case ~doc:(dmag_doc ()) ~absent:(a_doc ()) "ma" "cap_fauu_ma";
      cap_case ~doc:(dmag_doc ()) ~absent:(a_doc ()) "ma" "cap_ma_eb";
      cap_case "dr" "cap_eb_dr";
      cap_case "bb" "cap_dr_ebb";
      (* Appended, so the indices [test_main.exe test npd N] selects stay. *)
      Alcotest.test_case "unknown field refused" `Quick test_unknown_field;
      Alcotest.test_case "repeated field refused" `Quick test_repeated_field;
      Alcotest.test_case "subsection refused" `Quick test_subsection;
      Alcotest.test_case "unknown section refused" `Quick test_unknown_section;
      Alcotest.test_case "repeated section refused" `Quick test_repeated_section;
      Alcotest.test_case "section arguments refused" `Quick test_section_arguments;
      Alcotest.test_case "lexer malformed numbers" `Quick
        test_lexer_malformed_numbers;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])
        prop_single_byte_edits;
    ] )
