(* The klotski command-line interface: the EDP-Lite pipeline as a tool.

     klotski gen --label E -o e.npd      write a Table-3 topology as NPD
     klotski info e.npd                  topology and migration statistics
     klotski check e.npd                 evaluate the original state
     klotski plan e.npd --planner astar  plan and print the phases *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared argument definitions *)

let npd_file =
  let doc = "NPD topology/migration description file." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.npd" ~doc)

let theta =
  let doc = "Maximum circuit utilization bound (Eq. 5)." in
  Arg.(value & opt float 0.75 & info [ "theta" ] ~docv:"FRACTION" ~doc)

let alpha =
  let doc = "Parallel-operation cost parameter of the generalized cost \
             function (0 = count action-type changes only)." in
  Arg.(value & opt float 0.0 & info [ "alpha" ] ~doc)

let budget =
  let doc = "Planning budget in seconds (the paper's 24-hour cap, scaled)." in
  Arg.(value & opt float 120.0 & info [ "budget" ] ~docv:"SECONDS" ~doc)

let block_factor =
  let doc = "Operation-block organization factor (Fig. 11): >1 splits \
             blocks, <1 merges them." in
  Arg.(value & opt float 1.0 & info [ "block-factor" ] ~doc)

let seed =
  let doc = "Seed for the synthetic demand matrix." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let no_incremental =
  let doc =
    "Disable incremental demand evaluation: every satisfiability check \
     replays all ECMP classes from scratch (the historical path).  \
     Verdicts, plans and costs are identical either way; this is an \
     escape hatch and the baseline for the incremental benchmark."
  in
  Arg.(value & flag & info [ "no-incremental" ] ~doc)

let ensemble =
  let doc =
    "Robust planning: check every candidate state against this many demand \
     matrices (growth percentiles and spike scenarios derived from a \
     deterministic forecast).  1 is the historical single-matrix \
     admission, bit-identical."
  in
  Arg.(value & opt int 1 & info [ "ensemble" ] ~docv:"K" ~doc)

let quantile =
  let doc =
    "CVaR-style admission quantile: a state passes when safe under at \
     least ceil(QUANTILE * K) of the K ensemble matrices.  1.0 requires \
     safety under all of them."
  in
  Arg.(value & opt float 1.0 & info [ "quantile" ] ~docv:"Q" ~doc)

(* A float flag's range, checked before any work.  [in_range] is
   written to hold only inside the range, and NaN fails every
   comparison, so NaN and the infinities are refused with the rest. *)
let require_float flag ~range in_range x =
  if not (Float.is_finite x && in_range x) then begin
    Printf.eprintf "error: --%s must be %s\n" flag range;
    exit 1
  end

let unit_fraction x = x > 0.0 && x <= 1.0

(* The exit statuses a subcommand documents in its --help, before
   cmdliner's own (0, 123, 124, 125). *)
let exits codes = codes @ Cmd.Exit.defaults

let exit_bad_input =
  Cmd.Exit.info 1
    ~doc:"on an unreadable or malformed input, or a flag out of its range."

let resolve_ensemble k q config =
  if k < 1 then begin
    Printf.eprintf "error: --ensemble must be >= 1\n";
    exit 1
  end;
  require_float "quantile" ~range:"in (0, 1]" unit_fraction q;
  if k = 1 then config else Planner.with_ensemble ~quantile:q k config

let load_task ?(theta = 0.75) ?(alpha = 0.0) ?(block_factor = 1.0) ?(seed = 42)
    path =
  require_float "theta" ~range:"in (0, 1]" unit_fraction theta;
  match Npd_convert.load_scenario path with
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      exit 1
  | Ok scenario ->
      (scenario, Task.of_scenario ~theta ~alpha ~block_factor ~seed scenario)

(* ------------------------------------------------------------------ *)
(* gen *)

let gen_cmd =
  let label =
    let doc =
      "Topology label: the paper's Table 3 (A, B, C, D, E), the other two \
       migration types on E (E-SSW, E-DMAG), the scale tiers (F, F-SSW, \
       F-LITE) or the OCS tiers (OCS, OCS-LITE, OCS-SWAP, OCS-SWAP-LITE)."
    in
    Arg.(value & opt string "A" & info [ "label" ] ~doc)
  in
  let kind =
    let doc =
      "Migration kind: hgrid-v1-to-v2, ssw-forklift, dmag, ocs-rewire or \
       ocs-swap.  Defaults to the kind the label's scenario runs: \
       ssw-forklift for E-SSW and F-SSW, dmag for E-DMAG, ocs-rewire or \
       ocs-swap for the OCS tiers, hgrid-v1-to-v2 otherwise."
    in
    Arg.(value & opt (some string) None & info [ "kind" ] ~doc)
  in
  let output =
    let doc = "Output file (stdout when omitted)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc)
  in
  let run label kind output =
    let default_kind, params =
      match Gen.params_of_label label with
      | Some kp -> kp
      | None ->
          Printf.eprintf "error: unknown topology label %S\n" label;
          exit 1
    in
    let kind =
      match kind with
      | None -> default_kind
      | Some id -> (
          match Npd_convert.kind_of_id id with
          | Ok k -> k
          | Error e ->
              Printf.eprintf "error: %s\n" e;
              exit 1)
    in
    let doc = Npd_convert.of_params kind params in
    match output with
    | None -> print_string (Npd_printer.to_string doc)
    | Some path -> (
        match Npd_printer.write_file path doc with
        | Ok () -> Printf.printf "wrote %s\n" path
        | Error e ->
            Printf.eprintf "error: %s\n" e;
            exit 1)
  in
  Cmd.v
    (Cmd.info "gen" ~exits:(exits [ exit_bad_input ])
       ~doc:"Generate a Table-3 topology as an NPD document.")
    Term.(const run $ label $ kind $ output)

(* ------------------------------------------------------------------ *)
(* info *)

let info_cmd =
  let run path =
    match Npd_convert.load_scenario path with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        exit 1
    | Ok sc ->
        let st = Gen.stats sc in
        Printf.printf "scenario: %s\n" sc.Gen.name;
        Printf.printf "original switches:  %d\n" st.Gen.orig_switches;
        Printf.printf "original circuits:  %d\n" st.Gen.orig_circuits;
        Printf.printf "actions:            %d\n" st.Gen.actions;
        Printf.printf "capacity touched:   %.1f Tbps\n" st.Gen.capacity_touched;
        let scope = sc.Gen.drain_switches @ sc.Gen.undrain_switches in
        let sym = Symmetry.blocks (Topo.universe sc.Gen.topo) ~scope in
        Printf.printf "symmetry blocks:    %d (largest %d)\n" (List.length sym)
          (Symmetry.max_block_size sym);
        let blocks = Blocks.organize sc in
        Printf.printf "operation blocks:   %d\n" (List.length blocks);
        let findings = Audit.scenario sc in
        if List.is_empty findings then print_endline "structural audit:   clean"
        else begin
          Printf.printf "structural audit:   %d finding(s)\n"
            (List.length findings);
          List.iter (fun f -> Format.printf "  %a@." Audit.pp_finding f) findings;
          if not (Audit.is_clean findings) then exit 2
        end
  in
  Cmd.v
    (Cmd.info "info"
       ~exits:
         (exits
            [
              exit_bad_input;
              Cmd.Exit.info 2 ~doc:"when the structural audit reports a finding.";
            ])
       ~doc:"Topology and migration statistics of an NPD file.")
    Term.(const run $ npd_file)

(* ------------------------------------------------------------------ *)
(* check *)

let check_cmd =
  let run path theta seed =
    let _, task = load_task ~theta ~seed path in
    let ck = Constraint.create task in
    let s = Constraint.evaluate_current ck in
    Printf.printf "state: original topology\n";
    Printf.printf "max utilization:  %.3f (bound %.2f)\n" s.Constraint.max_util
      task.Task.theta;
    Printf.printf "stuck volume:     %.3f Tbps\n" s.Constraint.stuck;
    Printf.printf "port violations:  %d\n" s.Constraint.port_violations;
    print_endline "hottest circuits:";
    List.iter
      (fun (j, u) ->
        let c = Topo.circuit task.Task.topo j in
        Printf.printf "  %s -- %s: %.3f\n"
          (Topo.switch task.Task.topo c.Circuit.lo).Switch.name
          (Topo.switch task.Task.topo c.Circuit.hi).Switch.name u)
      s.Constraint.hottest
  in
  Cmd.v
    (Cmd.info "check" ~exits:(exits [ exit_bad_input ])
       ~doc:"Evaluate the demand and port constraints on the original state.")
    Term.(const run $ npd_file $ theta $ seed)

(* ------------------------------------------------------------------ *)
(* plan *)

let plan_cmd =
  let planner =
    let doc = "Planner: astar, dp, mrc, janus or exhaustive." in
    Arg.(value & opt string "astar" & info [ "planner" ] ~doc)
  in
  let no_validate =
    let doc =
      "Skip the plan audit, which re-checks every intermediate state with \
       the planner's own constraint checker (Constraint.check_plan)."
    in
    Arg.(value & flag & info [ "no-validate" ] ~doc)
  in
  let plan_out =
    let doc = "Write the plan's phases as an NPD document to this file." in
    Arg.(value & opt (some string) None & info [ "plan-out" ] ~doc)
  in
  let timeline =
    let doc = "Print the per-step utilization timeline of the plan." in
    Arg.(value & flag & info [ "timeline" ] ~doc)
  in
  let run path planner theta alpha budget block_factor seed no_incremental
      ensemble quantile no_validate plan_out timeline =
    require_float "alpha" ~range:"in [0, 1]" (fun a -> a >= 0.0 && a <= 1.0) alpha;
    require_float "budget" ~range:"a positive, finite number of seconds"
      (fun b -> b > 0.0) budget;
    require_float "block-factor" ~range:"positive and finite" (fun f -> f > 0.0)
      block_factor;
    let _, task = load_task ~theta ~alpha ~block_factor ~seed path in
    let planner_kind =
      match planner with
      | "astar" -> Klotski.Astar
      | "dp" -> Klotski.Dp
      | "mrc" -> Klotski.Mrc
      | "janus" -> Klotski.Janus
      | "exhaustive" -> Klotski.Exhaustive
      | other ->
          Printf.eprintf "error: unknown planner %S\n" other;
          exit 1
    in
    let config =
      resolve_ensemble ensemble quantile
        (Planner.with_incremental (not no_incremental)
           (Planner.with_budget (Some budget)))
    in
    let result = Klotski.plan ~planner:planner_kind ~config task in
    Format.printf "%a@." Planner.pp_result result;
    match result.Planner.outcome with
    | Planner.Found plan ->
        List.iter
          (fun ph -> Format.printf "%a@." Klotski.pp_phase ph)
          (Klotski.phases task plan);
        if timeline then print_string (Timeline.render task plan);
        (if not no_validate then
           match Plan.validate task plan with
           | Ok () -> print_endline "audit: every intermediate state is safe"
           | Error e ->
               Printf.printf "audit FAILED: %s\n" e;
               exit 2);
        (match plan_out with
        | None -> ()
        | Some out -> (
            match
              Npd_printer.write_file out (Npd_export.plan_to_npd task plan)
            with
            | Ok () -> (
                (* Self-check: the file we just wrote must parse back,
                   including the op prefix of every action string. *)
                match
                  Result.bind (Npd_parser.parse_file out)
                    Npd_export.phases_of_npd
                with
                | Ok phases ->
                    Printf.printf "wrote plan phases to %s (%d phases)\n" out
                      (List.length phases)
                | Error e ->
                    Printf.eprintf
                      "error: written plan fails to re-parse: %s\n" e;
                    exit 1)
            | Error e ->
                Printf.eprintf "error: %s\n" e;
                exit 1))
    | Planner.Infeasible -> exit 3
    | Planner.Timeout _ -> exit 4
    | Planner.Unsupported _ -> exit 5
  in
  Cmd.v
    (Cmd.info "plan"
       ~exits:
         (exits
            [
              exit_bad_input;
              Cmd.Exit.info 2
                ~doc:"when the audit finds an unsafe intermediate state in the plan.";
              Cmd.Exit.info 3 ~doc:"when no safe plan exists (infeasible).";
              Cmd.Exit.info 4 ~doc:"when the budget expires before a plan is found.";
              Cmd.Exit.info 5
                ~doc:
                  "when the planner does not support the task (MRC and Janus on \
                   OCS rewires).";
            ])
       ~doc:"Compute a safe migration plan from an NPD file.")
    Term.(
      const run $ npd_file $ planner $ theta $ alpha $ budget
      $ block_factor $ seed $ no_incremental $ ensemble $ quantile
      $ no_validate $ plan_out $ timeline)

(* ------------------------------------------------------------------ *)
(* simulate *)

let simulate_cmd =
  let weeks =
    let doc = "Maximum simulated duration in weeks." in
    Arg.(value & opt int 52 & info [ "max-weeks" ] ~doc)
  in
  let failure_probability =
    let doc = "Per-step probability that the configuration push fails." in
    Arg.(value & opt float 0.1 & info [ "failure-probability" ] ~doc)
  in
  let growth =
    let doc = "Weekly organic demand growth (fraction)." in
    Arg.(value & opt float 0.01 & info [ "growth" ] ~doc)
  in
  let surprise_probability =
    let doc =
      "Per-class per-week probability of a beyond-forecast demand surprise \
       (drift the forecast missed; triggers audits and replans)."
    in
    Arg.(value & opt float 0.0 & info [ "surprise-probability" ] ~doc)
  in
  let surprise_magnitude =
    let doc = "Multiplicative size of a demand surprise (0.5 = +50%)." in
    Arg.(value & opt float 0.5 & info [ "surprise-magnitude" ] ~doc)
  in
  let run path theta seed no_incremental ensemble quantile weeks
      failure_probability growth surprise_probability surprise_magnitude =
    let _, task = load_task ~theta ~seed path in
    let config =
      resolve_ensemble ensemble quantile
        (Planner.with_incremental (not no_incremental) Planner.default_config)
    in
    match Klotski.plan ~config task with
    | { Planner.outcome = Planner.Found plan; _ } ->
        let prng = Kutil.Prng.create ~seed in
        let forecast =
          Forecast.create ~weekly_growth:growth ~spike_probability:0.05
            ~prng:(Kutil.Prng.split prng) ()
        in
        let outcome =
          Simulate.run
            ~config:
              {
                Simulate.default_config with
                Simulate.max_weeks = weeks;
                failure_probability;
                surprise_probability;
                surprise_magnitude;
                ensemble;
                quantile;
              }
            ~prng ~forecast task plan
        in
        List.iter
          (fun e -> Format.printf "%a@." Simulate.pp_event e)
          outcome.Simulate.events;
        Printf.printf
          "summary: %s in %d weeks, %d pipeline failures, %d surprises, %d \
           replans\n"
          (if outcome.Simulate.completed then "completed" else "incomplete")
          outcome.Simulate.weeks outcome.Simulate.failures
          outcome.Simulate.surprises outcome.Simulate.replans;
        if not outcome.Simulate.completed then exit 3
    | r ->
        Format.printf "%a@." Planner.pp_result r;
        exit 3
  in
  Cmd.v
    (Cmd.info "simulate"
       ~exits:
         (exits
            [
              exit_bad_input;
              Cmd.Exit.info 3
                ~doc:"when the migration does not complete, or no plan is found.";
            ])
       ~doc:
         "Plan a migration and simulate operating it: weekly forecasts, \
          pre-step audits, push failures and replanning (the deployment \
          workflow of the paper's experience section).")
    Term.(
      const run $ npd_file $ theta $ seed $ no_incremental
      $ ensemble $ quantile $ weeks $ failure_probability $ growth
      $ surprise_probability $ surprise_magnitude)

(* ------------------------------------------------------------------ *)
(* export *)

let export_cmd =
  let output =
    let doc = "Output .dot file." in
    Arg.(value & opt string "topology.dot" & info [ "o"; "output" ] ~doc)
  in
  let roles =
    let doc = "Comma-separated roles to include (e.g. SSW,FADU,FAUU,EB)." in
    Arg.(value & opt (some string) None & info [ "roles" ] ~doc)
  in
  let max_switches =
    let doc = "Truncate the export beyond this many switches." in
    Arg.(value & opt int 400 & info [ "max-switches" ] ~doc)
  in
  let run path output roles max_switches =
    match Npd_convert.load_scenario path with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        exit 1
    | Ok sc ->
        let roles =
          Option.map
            (fun spec ->
              List.filter_map Switch.role_of_string
                (String.split_on_char ',' spec))
            roles
        in
        (match Dot.write_file ?roles ~max_switches output sc.Gen.topo with
        | Ok () -> Printf.printf "wrote %s\n" output
        | Error e ->
            Printf.eprintf "error: %s\n" e;
            exit 1)
  in
  Cmd.v
    (Cmd.info "export" ~exits:(exits [ exit_bad_input ])
       ~doc:"Export the original topology state as Graphviz.")
    Term.(const run $ npd_file $ output $ roles $ max_switches)

let () =
  let info =
    Cmd.info "klotski" ~version:"1.0.0"
      ~doc:"Efficient and safe network migration planning (SIGCOMM '23)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ gen_cmd; info_cmd; check_cmd; plan_cmd; simulate_cmd; export_cmd ]))
