(* klotski-sentinel: typed race & determinism analyzer over
   compiler-generated [.cmt] typedtrees.

     klotski-sentinel [--src DIR]... [CMT-ROOT ...]

   CMT-ROOTs are searched recursively for [.cmt] files (default: lib bin
   bench perfbench); the cmts under test and examples only count S5's
   references.  Run it from the build root (_build/default), as the
   @sentinel alias does: the include paths recorded in the cmts, which
   R1 needs to rebuild each use site's typing environment, are relative
   to it.  --src names the source trees scanned for suppression
   comments and the S4 stale-suppression audit (default: lib bin bench
   perfbench).

   Prints the audited [@@klotski.domain_safe] state and S5's test-only
   exports, then one [file:line:col [rule] message] line per finding,
   and exits non-zero when any remain unsuppressed.  Rule catalog R1-R6
   and S2-S5: DESIGN.md section 7. *)

let () =
  let rec parse_args srcs roots = function
    | [] -> (List.rev srcs, List.rev roots)
    | "--src" :: dir :: rest -> parse_args (dir :: srcs) roots rest
    | root :: rest -> parse_args srcs (root :: roots) rest
  in
  let srcs, roots = parse_args [] [] (List.tl (Array.to_list Sys.argv)) in
  let default = Sentinel.default_config.Sentinel.source_roots in
  let cmt_roots = match roots with [] -> default | roots -> roots in
  let config =
    {
      Sentinel.default_config with
      Sentinel.source_roots = (match srcs with [] -> default | srcs -> srcs);
    }
  in
  let report = Sentinel.analyze ~config ~cmt_roots () in
  List.iter print_endline (Sentinel.render_summary report);
  List.iter
    (fun f -> print_endline (Sentinel_finding.to_string f))
    report.Sentinel.findings;
  match report.Sentinel.findings with
  | [] ->
      Printf.printf "klotski-sentinel: clean (%s)\n"
        (String.concat " " cmt_roots)
  | findings ->
      Printf.eprintf "klotski-sentinel: %d finding(s)\n" (List.length findings);
      exit 1
