(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation section (§6).

     dune exec bench/main.exe                 run every experiment
     dune exec bench/main.exe -- fig8 fig12   run a subset
     dune exec bench/main.exe -- --quick all  downsized instances (A-C)

   Optional flags: --quick, --budget SECONDS. *)

let usage () =
  prerr_endline
    ("usage: main.exe [--quick] [--budget S] ["
    ^ String.concat "|" (List.map fst Experiments.all @ [ "all" ])
    ^ "]...");
  exit 2

let () =
  let opts = ref Experiments.default_opts in
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        opts := { !opts with Experiments.quick = true };
        parse rest
    | "--budget" :: v :: rest -> (
        match float_of_string_opt v with
        | Some b when b > 0.0 ->
            opts := { !opts with Experiments.budget = b };
            parse rest
        | Some _ | None -> usage ())
    | "--help" :: _ | "-h" :: _ -> usage ()
    | name :: rest ->
        selected := name :: !selected;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected =
    match List.rev !selected with [] | [ "all" ] -> [ "everything" ] | l -> l
  in
  let opts = !opts in
  Printf.printf
    "Klotski benchmark harness (budget %.0fs per planner run%s)\n"
    opts.Experiments.budget
    (if opts.Experiments.quick then ", quick mode: topologies A-C" else "");
  let run_one name =
    match List.assoc_opt name Experiments.all with
    | Some f -> f opts
    | None -> (
        match name with
        | "everything" -> List.iter (fun (_, f) -> f opts) Experiments.all
        | other ->
            Printf.eprintf "unknown experiment %S\n" other;
            usage ())
  in
  let started = Kutil.Timer.now () in
  List.iter run_one selected;
  Printf.printf "\ntotal harness time: %.1fs\n" (Kutil.Timer.now () -. started)
