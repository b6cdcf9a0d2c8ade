(* Driver for klotski-sentinel: load [.cmt] typedtrees, build the call
   graph, solve the effect lattice over SCCs, run S2–S5 and the site
   rules R1–R6, apply suppression comments, and audit the suppressions
   themselves.  Printing is left to the caller ([bin/klotski_sentinel]):
   nothing in [lib/] writes to the console. *)

module G = Sentinel_callgraph

type config = {
  s3_roots : string list;  (* key-feeding functions that must stay deterministic *)
  source_roots : string list;
      (* source trees scanned for suppression comments: malformed and
         stale directives there are findings.  Empty = scan only the
         files findings land in. *)
  reference_roots : string list;
      (* [.cmt] trees read only to count S5's references (tests,
         examples): no other rule looks at them *)
}

let default_config =
  {
    s3_roots =
      [
        "Cache.key_of"; "Ensemble.hash_of"; "Ensemble.id"; "Vec_key.hash";
        "Vec_key.equal"; "Vec_key.compare";
      ];
    source_roots = [ "lib"; "bin"; "bench"; "perfbench" ];
    reference_roots = [ "test"; "examples" ];
  }

type report = {
  findings : Sentinel_finding.t list;  (* post-suppression, stable order *)
  unit_count : int;
  def_count : int;
  audited : (string * string * int * string) list;
      (* display, file, line, reason of each reasoned annotation *)
  test_only : string list;  (* S5: exports only tests reference, sorted *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Deterministic recursive [.ml] collection ([_build] and dot-directories
   excluded), so the report order never depends on readdir order. *)
let rec collect_sources acc path =
  if Sys.file_exists path && Sys.is_directory path then
    Array.to_list (Sys.readdir path)
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if String.equal name "_build" || Char.equal name.[0] '.' then acc
           else collect_sources acc (Filename.concat path name))
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let analyze ?(config = default_config) ~cmt_roots () =
  let units, problems = Sentinel_cmt.load ~roots:cmt_roots in
  let refs, ref_problems = Sentinel_cmt.load ~roots:config.reference_roots in
  let dead, test_only = Sentinel_exports.s5 ~subjects:units (units @ refs) in
  let graph = G.build units in
  let vis = Sentinel_rules.visible graph in
  let by_key = Hashtbl.create 256 in
  List.iter (fun (d : G.def) -> Hashtbl.replace by_key (G.gid_key d.G.gid) d) vis;
  let effects =
    Sentinel_effect.solve
      ~nodes:(List.map (fun (d : G.def) -> G.gid_key d.G.gid) vis)
      ~direct:(fun k -> Sentinel_rules.direct_effect (Hashtbl.find by_key k))
      ~calls:(fun k ->
        (Hashtbl.find by_key k).G.calls
        |> List.filter_map (fun gid ->
               match G.find_def graph gid with
               | Some d -> Some (G.gid_key d.G.gid)
               | None -> None))
  in
  let raw =
    Sentinel_rules.s2 graph effects
    @ Sentinel_rules.s3 graph effects ~roots:config.s3_roots
    @ Sentinel_rules.s4_annotations graph
    @ List.concat_map (Sentinel_sites.check graph) units
    @ dead
  in
  (* Suppression comments live in sources, which the analyzer does not
     otherwise read; scan the configured trees plus any finding's own
     file. *)
  let files =
    List.fold_left collect_sources [] config.source_roots
    @ List.filter_map
        (fun (f : Sentinel_finding.t) ->
          if Sys.file_exists f.Sentinel_finding.file then
            Some f.Sentinel_finding.file
          else None)
        raw
    |> List.sort_uniq String.compare
  in
  let sups =
    List.map (fun file -> (file, Sentinel_suppress.scan ~file (read_file file))) files
  in
  let covered_by file (d : Sentinel_suppress.directive) (f : Sentinel_finding.t) =
    String.equal file f.Sentinel_finding.file && Sentinel_suppress.covers d f
  in
  let kept =
    List.filter
      (fun f ->
        not
          (List.exists
             (fun (file, sup) ->
               List.exists (fun d -> covered_by file d f) sup.Sentinel_suppress.directives)
             sups))
      raw
  in
  (* S4, suppression half: a directive is stale when none of the rules
     it lists has a raw finding on its line or the next. *)
  let stale =
    List.concat_map
      (fun (file, sup) ->
        List.filter_map
          (fun (d : Sentinel_suppress.directive) ->
            if List.exists (covered_by file d) raw then None
            else
              Some
                (Sentinel_finding.v ~file ~line:d.Sentinel_suppress.line
                   ~col:d.Sentinel_suppress.col ~rule:"S4"
                   (Printf.sprintf
                      "stale suppression (allow %s): no finding on this or \
                       the next line — delete it"
                      (String.concat " " d.Sentinel_suppress.rules))))
          sup.Sentinel_suppress.directives)
      sups
  in
  let malformed = List.concat_map (fun (_, sup) -> sup.Sentinel_suppress.problems) sups in
  {
    findings =
      List.sort Sentinel_finding.order
        (problems @ ref_problems @ kept @ stale @ malformed);
    unit_count = List.length units;
    def_count = List.length vis;
    audited =
      List.map
        (fun ((d : G.def), (aloc : Location.t), reason) ->
          ( G.display d.G.gid,
            d.G.source,
            aloc.Location.loc_start.Lexing.pos_lnum,
            reason ))
        (Sentinel_rules.audited graph);
    test_only;
  }

(* The report's summary: which annotations vouch for shared state, and
   which exports only tests keep alive. *)
let render_summary r =
  [
    Printf.sprintf "klotski-sentinel: %d units, %d defs analyzed" r.unit_count
      r.def_count;
  ]
  @ (match r.audited with
    | [] -> []
    | audited ->
        "audited [@@klotski.domain_safe] state:"
        :: List.map
             (fun (display, file, line, reason) ->
               Printf.sprintf "  %s (%s:%d) — %s" display file line reason)
             audited)
  @
  match r.test_only with
  | [] -> []
  | names ->
      Printf.sprintf "S5 exports only tests reference (%d):" (List.length names)
      :: List.map (fun n -> "  " ^ n) names
