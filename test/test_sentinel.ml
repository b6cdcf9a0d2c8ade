(* Golden tests for the klotski-sentinel rule catalog (lib/analysis):
   each fixture under [sentinel_fixtures/] pairs with a [.expected]
   file holding the exact findings, one [file:line:col [rule] message]
   line each.  The analyzer reads [.cmt] typedtrees, so the fixtures
   are a tiny library dune compiles for us (warnings off) and one
   whole-program analysis over its object directory backs every case.

   The working directory moves up to the build root first: source
   paths recorded in the cmts ("test/sentinel_fixtures/...") must
   resolve on disk for suppression-comment scanning, and so must the
   include paths R1 rebuilds each use site's typing environment from.

   A separate binary from [test_main]: compiler-libs' [Switch] unit
   clashes with the topology library's. *)

let () = Sys.chdir Filename.parent_dir_name

let fixture_dir = Filename.concat "test" "sentinel_fixtures"

let config =
  {
    Sentinel.s3_roots = [ "Fx_cache.key_of" ];
    source_roots = [ fixture_dir ];
    reference_roots = [];
  }

let report = lazy (Sentinel.analyze ~config ~cmt_roots:[ fixture_dir ] ())

let findings_for base =
  (Lazy.force report).Sentinel.findings
  |> List.filter (fun (f : Sentinel_finding.t) ->
         String.equal (Filename.basename f.Sentinel_finding.file) base)
  |> List.map (fun (f : Sentinel_finding.t) ->
         Sentinel_finding.to_string
           { f with Sentinel_finding.file = Filename.basename f.Sentinel_finding.file })

let read_expected name =
  let ic = open_in (Filename.concat fixture_dir name) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line ->
            go (if String.equal (String.trim line) "" then acc else line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let golden base () =
  let expected = read_expected (Filename.remove_extension base ^ ".expected") in
  Alcotest.(check (list string)) base expected (findings_for base)

let fixtures =
  [
    "fx_state.ml";
    "fx_float.ml";
    "fx_cache.ml";
    "fx_dead.ml";
    "fx_rewire.ml";
    "r1_compare.ml";
    "r2_state.ml";
    "r3_float.ml";
    "r4_nondet.ml";
    "r5_print.ml";
    "r6_unchecked.ml";
    "s5_export.mli";
    "s5_user.ml";
    "suppress_ok.ml";
    "suppress_missing_reason.ml";
  ]

let suppression_is_clean () =
  Alcotest.(check (list string))
    "reasoned allow directives silence every finding" []
    (findings_for "suppress_ok.ml")

(* A typo'd root would silently check nothing; the analyzer reports
   unresolved roots as findings under a synthetic file. *)
let roots_resolve () =
  Alcotest.(check (list string))
    "all configured roots resolve" []
    (findings_for "(sentinel-config)")

let audited_listed () =
  let r = Lazy.force report in
  let listed name =
    List.exists (fun (display, _, _, _) -> String.equal display name) r.Sentinel.audited
  in
  Alcotest.(check bool)
    "audited annotation surfaces in the report" true
    (listed "Fx_state.audited");
  Alcotest.(check bool)
    "an annotation without a reason audits nothing" false
    (listed "Fx_state.bare")

(* Every fixture unit lies under test/, so the one export another unit
   references is the one listed as test-only. *)
let test_only_listed () =
  Alcotest.(check (list string))
    "exports only tests reference" [ "S5_export.used" ]
    (Lazy.force report).Sentinel.test_only

let suite =
  ( "sentinel",
    List.map (fun name -> Alcotest.test_case name `Quick (golden name)) fixtures
    @ [
        Alcotest.test_case "configured roots resolve" `Quick roots_resolve;
        Alcotest.test_case "audited state listed" `Quick audited_listed;
        Alcotest.test_case "test-only exports listed" `Quick test_only_listed;
        Alcotest.test_case "reasoned suppressions lint clean" `Quick
          suppression_is_clean;
      ] )

let () = Alcotest.run "klotski-sentinel" [ suite ]
