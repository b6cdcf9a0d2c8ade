(* F-scale generation: build the beyond-paper F tier (~111k switches,
   ~991k circuits, ROADMAP item 3) and print what the packed universe
   costs in memory — the per-component footprint of the CSR layout plus
   the process's peak RSS.

     dune exec examples/f_scale.exe            the full F tier
     dune exec examples/f_scale.exe -- F-LITE  the CI-sized smoke tier *)

let () =
  let label = if Array.length Sys.argv > 1 then Sys.argv.(1) else "F" in
  let t0 = Kutil.Timer.now () in
  let scenario = Gen.scenario_of_label label in
  let build_s = Kutil.Timer.now () -. t0 in
  let st = Gen.stats scenario in
  let u = Topo.universe scenario.Gen.topo in
  Printf.printf
    "Scenario %s: %d switches, %d circuits (original network), built in %.2fs\n"
    scenario.Gen.name st.Gen.orig_switches st.Gen.orig_circuits build_s;
  Printf.printf "Universe: %d switches, %d circuits (both generations)\n\n"
    (Universe.n_switches u) (Universe.n_circuits u);

  let table =
    Kutil.Table_fmt.create ~headers:[ "Component"; "Bytes"; "MiB" ]
  in
  let total = ref 0 in
  List.iter
    (fun (name, bytes) ->
      total := !total + bytes;
      Kutil.Table_fmt.add_row table
        [
          name;
          string_of_int bytes;
          Printf.sprintf "%.1f" (float_of_int bytes /. 1048576.0);
        ])
    (Universe.footprint u);
  Kutil.Table_fmt.add_row table
    [
      "total";
      string_of_int !total;
      Printf.sprintf "%.1f" (float_of_int !total /. 1048576.0);
    ];
  Kutil.Table_fmt.print ~align:Kutil.Table_fmt.Right table;

  let per_circuit = float_of_int !total /. float_of_int (Universe.n_circuits u) in
  Printf.printf "\npacked universe: %.0f bytes per circuit\n" per_circuit;
  match Kutil.Meminfo.peak_rss_kb () with
  | Some kb -> Printf.printf "process peak RSS: %.1f MiB\n" (float_of_int kb /. 1024.0)
  | None -> print_endline "process peak RSS: unavailable (no procfs)"
