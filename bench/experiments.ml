(* The experiment harness: one function per table and figure of the
   paper's evaluation (§6).  Each prints the same rows/series the paper
   reports; EXPERIMENTS.md records paper-vs-measured. *)

module Table_fmt = Kutil.Table_fmt

type opts = { budget : float; quick : bool }

let default_opts = { budget = 300.0; quick = false }

let cfg opts = Planner.with_budget (Some opts.budget)

let labels opts = if opts.quick then [ "A"; "B"; "C" ] else [ "A"; "B"; "C"; "D"; "E" ]

let big_label opts = if opts.quick then "C" else "E"

(* Scenario/task construction is deterministic, so memoize within a run:
   several figures share topology E. *)
let scenario_cache : (string, Gen.scenario) Hashtbl.t = Hashtbl.create 8

let scenario label =
  match Hashtbl.find_opt scenario_cache label with
  | Some sc -> sc
  | None ->
      let sc = Gen.scenario_of_label label in
      Hashtbl.replace scenario_cache label sc;
      sc

let task_cache : (string, Task.t) Hashtbl.t = Hashtbl.create 8

let task label =
  match Hashtbl.find_opt task_cache label with
  | Some t -> t
  | None ->
      let t = Task.of_scenario (scenario label) in
      Hashtbl.replace task_cache label t;
      t

(* ------------------------------------------------------------------ *)
(* JSON artifact provenance.  Every BENCH_*.json header records the
   commit it was produced from, so an artifact found loose in a results
   directory traces back to its code.  Benches also run from exported
   tarballs and sandboxes without git, so failure to resolve degrades
   to "unknown" rather than failing the run. *)

let commit_hash =
  lazy
    (try
       let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
       let line = try input_line ic with End_of_file -> "" in
       match Unix.close_process_in ic with
       | Unix.WEXITED 0 when String.length line > 0 -> line
       | _ -> "unknown"
     with _ -> "unknown")

(* A run's artifact: BENCH_<NAME>.json, the committed record of a full
   run, or BENCH_<NAME>.quick.json for a quick one, so a quick run never
   overwrites the record. *)
let artifact opts name =
  Printf.sprintf "BENCH_%s%s.json" name (if opts.quick then ".quick" else "")

let fprint_json_header oc experiment =
  Printf.fprintf oc "{\n  \"experiment\": %S,\n" experiment;
  Printf.fprintf oc "  \"commit\": %S,\n" (Lazy.force commit_hash);
  Printf.fprintf oc "  \"cores\": %d,\n" (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* Table 1: migration statistics per DC *)

let table1 opts =
  Runner.heading "Table 1: migration statistics per DC";
  Runner.note
    "Switches/circuits/capacity touched by each migration type, per DC \
     (region totals divided by the DC count); phases from the optimal plan.";
  let t =
    Table_fmt.create
      ~headers:
        [ "Migration"; "Switches"; "Circuits"; "Capacity (Tbps)"; "Phases";
          "Duration" ]
  in
  let rows =
    if opts.quick then begin
      (* Downsized: the three migration kinds on the C parameters. *)
      let p = { (Gen.params_c ()) with Gen.mas = 24 } in
      [
        ("HGRID", Gen.scenario_of_label "C");
        ("SSW Forklift", Gen.build Gen.Ssw_forklift p);
        ("DMAG", Gen.build Gen.Dmag p);
      ]
    end
    else
      [
        ("HGRID", scenario "E");
        ("SSW Forklift", scenario "E-SSW");
        ("DMAG", scenario "E-DMAG");
      ]
  in
  List.iter
    (fun (name, sc) ->
      let st = Gen.stats sc in
      let dcs = sc.Gen.layout.Gen.params.Gen.dcs in
      let touched_circuits =
        (* Circuits incident to operated switches plus standalone groups. *)
        let ops = Hashtbl.create 256 in
        List.iter (fun s -> Hashtbl.replace ops s ())
          (sc.Gen.drain_switches @ sc.Gen.undrain_switches);
        let count = ref 0 in
        Array.iter
          (fun (c : Circuit.t) ->
            if Hashtbl.mem ops c.Circuit.lo || Hashtbl.mem ops c.Circuit.hi then
              incr count)
          (Topo.circuits sc.Gen.topo);
        List.iter
          (fun (_, cs) -> count := !count + List.length cs)
          sc.Gen.drain_circuit_groups;
        !count
      in
      let row_task = Task.of_scenario sc in
      let phases, duration =
        match (Astar.plan ~config:(cfg opts) row_task).Planner.outcome with
        | Planner.Found p ->
            (* "Duration": simulate executing the plan with weekly
               forecasts and a 10% per-step pipeline failure rate. *)
            let prng = Kutil.Prng.create ~seed:7 in
            let forecast =
              Forecast.create ~weekly_growth:0.005 ~spike_probability:0.0
                ~prng:(Kutil.Prng.split prng) ()
            in
            let sim = Simulate.run ~prng ~forecast row_task p in
            ( string_of_int (List.length p.Plan.runs),
              if sim.Simulate.completed then
                Printf.sprintf "%d weeks" sim.Simulate.weeks
              else "incomplete" )
        | _ -> (Runner.cross, Runner.cross)
      in
      Table_fmt.add_row t
        [
          name;
          string_of_int (st.Gen.actions / dcs) ^ "/DC";
          string_of_int (touched_circuits / dcs) ^ "/DC";
          Printf.sprintf "%.1f" (st.Gen.capacity_touched /. float_of_int dcs);
          phases;
          duration;
        ])
    rows;
  Table_fmt.print ~align:Table_fmt.Right t

(* ------------------------------------------------------------------ *)
(* Table 3: topology configurations *)

let table3 opts =
  Runner.heading "Table 3: configurations for each topology";
  let t =
    Table_fmt.create
      ~headers:[ "Topology"; "Switches"; "Circuits"; "Actions"; "Blocks"; "Types" ]
  in
  let all = if opts.quick then [ "A"; "B"; "C" ] else Gen.all_labels in
  List.iter
    (fun label ->
      let sc = scenario label in
      let st = Gen.stats sc in
      let blocks = Blocks.organize sc in
      let types =
        Action.Set.cardinal
          (Action.Set.of_list (List.map (fun (b : Blocks.t) -> b.Blocks.action) blocks))
      in
      Table_fmt.add_row t
        [
          label;
          string_of_int st.Gen.orig_switches;
          string_of_int st.Gen.orig_circuits;
          string_of_int st.Gen.actions;
          string_of_int (List.length blocks);
          string_of_int types;
        ])
    all;
  Table_fmt.print ~align:Table_fmt.Right t

(* ------------------------------------------------------------------ *)
(* Figures 8 & 9: planner comparison over sizes and migration types *)

let compare_planners opts ~title ~rows =
  Runner.heading title;
  let cost_t =
    Table_fmt.create
      ~headers:[ "Task"; "MRC"; "Janus"; "Klotski-DP"; "Klotski-A*" ]
  in
  let time_t =
    Table_fmt.create
      ~headers:[ "Task"; "MRC"; "Janus"; "Klotski-DP"; "Klotski-A*" ]
  in
  List.iter
    (fun (label, task) ->
      Printf.printf "  planning %s...\n%!" label;
      let astar = Runner.run (Astar.plan ~config:(cfg opts) task) in
      let dp = Runner.run (Dp.plan ~config:(cfg opts) task) in
      let mrc = Runner.run (Mrc.plan ~config:(cfg opts) task) in
      let janus = Runner.run (Janus.plan ~config:(cfg opts) task) in
      let optimal = astar.Runner.cost in
      let base = Float.max astar.Runner.time 1e-6 in
      Table_fmt.add_row cost_t
        [
          label;
          Runner.norm_cost mrc ~optimal;
          Runner.norm_cost janus ~optimal;
          Runner.norm_cost dp ~optimal;
          Runner.norm_cost astar ~optimal;
        ];
      Table_fmt.add_row time_t
        [
          Printf.sprintf "%s (A*: %.2fs)" label astar.Runner.time;
          Runner.norm_time mrc ~base;
          Runner.norm_time janus ~base;
          Runner.norm_time dp ~base;
          Runner.norm_time astar ~base;
        ])
    rows;
  Runner.note "(a) plan cost, normalized by the optimal cost:";
  Table_fmt.print ~align:Table_fmt.Right cost_t;
  Runner.note "(b) planning time, normalized by Klotski-A*:";
  Table_fmt.print ~align:Table_fmt.Right time_t

let fig8 opts =
  compare_planners opts
    ~title:"Figure 8: Klotski vs baselines under various topology sizes"
    ~rows:(List.map (fun l -> (l, task l)) (labels opts))

let fig9 opts =
  let rows =
    if opts.quick then begin
      let p = { (Gen.params_c ()) with Gen.mas = 24 } in
      [
        ("C", task "C");
        ("C-DMAG", Task.of_scenario (Gen.build Gen.Dmag p));
        ("C-SSW", Task.of_scenario (Gen.build Gen.Ssw_forklift p));
      ]
    end
    else
      [ ("E", task "E"); ("E-DMAG", task "E-DMAG"); ("E-SSW", task "E-SSW") ]
  in
  compare_planners opts
    ~title:"Figure 9: Klotski vs baselines under various migration types"
    ~rows

(* ------------------------------------------------------------------ *)
(* Figure 10: design-choice ablations *)

let fig10 opts =
  Runner.heading "Figure 10: impact of Klotski design choices";
  let headers = [ "Task"; "w/o OB"; "w/o A*"; "w/o ESC"; "Klotski-A*" ] in
  let cost_t = Table_fmt.create ~headers in
  let time_t = Table_fmt.create ~headers in
  (* The w/o-OB searches explode by design; keep their budget short. *)
  let ob_budget = Float.min opts.budget 120.0 in
  List.iter
    (fun label ->
      Printf.printf "  ablating %s...\n%!" label;
      let sc = scenario label in
      let t = task label in
      let astar = Runner.run (Astar.plan ~config:(cfg opts) t) in
      let no_astar =
        Runner.run (Exhaustive.plan ~config:(cfg opts) ~bound:`Cost_only t)
      in
      let no_esc =
        Runner.run
          (Astar.plan ~dedup:false
             ~config:{ (cfg opts) with Planner.use_cache = false }
             t)
      in
      let no_ob =
        let sym_task =
          Task.of_scenario ~blocks:(Blocks.symmetry_granularity sc) sc
        in
        Runner.run
          (Astar.plan ~config:(Planner.with_budget (Some ob_budget)) sym_task)
      in
      let optimal = astar.Runner.cost in
      let base = Float.max astar.Runner.time 1e-6 in
      Table_fmt.add_row cost_t
        [
          label;
          (* w/o OB plans a finer action space: its absolute cost is not
             normalized against the merged-block optimum. *)
          Runner.raw_cost no_ob;
          Runner.norm_cost no_astar ~optimal;
          Runner.norm_cost no_esc ~optimal;
          Runner.norm_cost astar ~optimal;
        ];
      Table_fmt.add_row time_t
        [
          Printf.sprintf "%s (A*: %.2fs)" label astar.Runner.time;
          Runner.norm_time no_ob ~base;
          Runner.norm_time no_astar ~base;
          Runner.norm_time no_esc ~base;
          Runner.norm_time astar ~base;
        ])
    (labels opts);
  Runner.note "(a) plan cost (w/o OB reported absolute: its action space differs):";
  Table_fmt.print ~align:Table_fmt.Right cost_t;
  Runner.note "(b) planning time, normalized by Klotski-A*:";
  Table_fmt.print ~align:Table_fmt.Right time_t

(* ------------------------------------------------------------------ *)
(* Figure 11: operation-block organization factor *)

let fig11 opts =
  Runner.heading "Figure 11: impact of operation blocks";
  let sc = scenario (big_label opts) in
  let t =
    Table_fmt.create
      ~headers:[ "# blocks"; "Blocks"; "Min cost"; "DP time (s)"; "A* time (s)" ]
  in
  List.iter
    (fun factor ->
      Printf.printf "  factor %.2fx...\n%!" factor;
      let task = Task.of_scenario ~block_factor:factor sc in
      let astar = Runner.run (Astar.plan ~config:(cfg opts) task) in
      let dp = Runner.run (Dp.plan ~config:(cfg opts) task) in
      Table_fmt.add_row t
        [
          Printf.sprintf "%.2fx" factor;
          string_of_int (Task.total_blocks task);
          Runner.raw_cost astar;
          Runner.raw_time dp;
          Runner.raw_time astar;
        ])
    [ 0.25; 0.5; 1.0; 2.0; 4.0 ];
  Table_fmt.print ~align:Table_fmt.Right t

(* ------------------------------------------------------------------ *)
(* Figure 12: utilization-rate bound *)

let fig12 opts =
  Runner.heading "Figure 12: impact of utilization rate bound";
  let base_task = task (big_label opts) in
  let t =
    Table_fmt.create
      ~headers:[ "Theta (%)"; "Optimal cost"; "DP time (s)"; "A* time (s)" ]
  in
  List.iter
    (fun theta ->
      Printf.printf "  theta %.0f%%...\n%!" (100.0 *. theta);
      let task = Task.with_params ~theta base_task in
      let astar = Runner.run (Astar.plan ~config:(cfg opts) task) in
      let dp = Runner.run (Dp.plan ~config:(cfg opts) task) in
      Table_fmt.add_row t
        [
          Printf.sprintf "%.0f" (100.0 *. theta);
          Runner.raw_cost astar;
          Runner.raw_time dp;
          Runner.raw_time astar;
        ])
    [ 0.55; 0.65; 0.75; 0.85; 0.95 ];
  Table_fmt.print ~align:Table_fmt.Right t

(* ------------------------------------------------------------------ *)
(* Figure 13: generalized cost function *)

let fig13 opts =
  Runner.heading "Figure 13: impact of the cost function (alpha)";
  let base_task = task (big_label opts) in
  let t =
    Table_fmt.create
      ~headers:[ "Alpha"; "Optimal cost"; "DP time (s)"; "A* time (s)" ]
  in
  List.iter
    (fun alpha ->
      Printf.printf "  alpha %.1f...\n%!" alpha;
      let task = Task.with_params ~alpha base_task in
      let astar = Runner.run (Astar.plan ~config:(cfg opts) task) in
      let dp = Runner.run (Dp.plan ~config:(cfg opts) task) in
      Table_fmt.add_row t
        [
          Printf.sprintf "%.1f" alpha;
          Runner.raw_cost astar;
          Runner.raw_time dp;
          Runner.raw_time astar;
        ])
    [ 0.0; 0.2; 0.4; 0.6; 0.8; 1.0 ];
  Table_fmt.print ~align:Table_fmt.Right t

(* ------------------------------------------------------------------ *)
(* Extensions (§7 deployment machinery): not figures of the paper, but
   experiments over the features its deployment section describes. *)

let ext opts =
  Runner.heading
    "Extension experiments: §7 deployment machinery (topology B)";
  (* (a) Temporary routing configurations (§7.1): degraded-capacity V2
     circuits under plain vs capacity-weighted ECMP. *)
  Runner.note "(a) mixed-generation routing (V2 circuits at 60% capacity):";
  let p = Gen.params_b () in
  let p = { p with Gen.cap_ssw_fadu_v2 = p.Gen.cap_ssw_fadu_v1 *. 0.6 } in
  let sc = Gen.build Gen.Hgrid_v1_to_v2 p in
  let t = Table_fmt.create ~headers:[ "Routing"; "Plan cost"; "Time (s)" ] in
  List.iter
    (fun (name, routing) ->
      let task = Task.of_scenario ~theta:0.7 ~routing sc in
      let cell = Runner.run (Astar.plan ~config:(cfg opts) task) in
      Table_fmt.add_row t
        [ name; Runner.raw_cost cell; Runner.raw_time cell ])
    [ ("plain ECMP", `Ecmp); ("capacity-weighted", `Weighted) ];
  Table_fmt.print ~align:Table_fmt.Right t;
  (* (b) Space & power (§7.2): transient headroom sweep.  Ports are left
     loose so the power budget is the only coexistence constraint. *)
  Runner.note "(b) space & power: hall headroom sweep (theta = 0.95, loose ports):";
  let sc_b =
    Gen.build Gen.Hgrid_v1_to_v2
      { (Gen.params_b ()) with Gen.ssw_port_headroom = 12 }
  in
  let t = Table_fmt.create ~headers:[ "Headroom"; "Plan cost"; "Time (s)" ] in
  let v1_count =
    List.length
      (sc_b.Gen.drain_switches : int list)
  in
  let v2_count = List.length sc_b.Gen.undrain_switches in
  (* The new generation's total draw is 1.3x the old one's: more capacity,
     better efficiency per box. *)
  let v2_draw = 1.3 *. float_of_int v1_count /. float_of_int v2_count in
  List.iter
    (fun headroom ->
      let power = Power.hall_model ~v2_draw sc_b ~headroom in
      let task = Task.of_scenario ~theta:0.95 ~power sc_b in
      let cell = Runner.run (Astar.plan ~config:(cfg opts) task) in
      Table_fmt.add_row t
        [
          Printf.sprintf "%.0f%%" (100.0 *. headroom);
          Runner.raw_cost cell;
          Runner.raw_time cell;
        ])
    [ 0.05; 0.1; 0.25; 0.5; 1.0 ];
  Table_fmt.print ~align:Table_fmt.Right t;
  (* (c) OPEX cost model (§7.2): draining the old generation gets costly. *)
  Runner.note "(c) OPEX model: labor weight of V1 drains swept:";
  let base = task "B" in
  let n = Action.Set.cardinal base.Task.actions in
  let t = Table_fmt.create ~headers:[ "Drain weight"; "Plan cost"; "Phases" ] in
  List.iter
    (fun w ->
      let weights =
        Array.init n (fun a ->
            (* Deactivating live gear is the costly labor; everything
               else (undrains, OCS flips) stays at unit weight. *)
            match Action.applies (Action.Set.get base.Task.actions a) with
            | Action.Set_activity false -> w
            | Action.Set_activity true | Action.Set_wiring _ -> 1.0)
      in
      let task = Task.with_params ~type_weights:weights base in
      match (Astar.plan ~config:(cfg opts) task).Planner.outcome with
      | Planner.Found p ->
          Table_fmt.add_row t
            [
              Printf.sprintf "%.1f" w;
              Printf.sprintf "%g" p.Plan.cost;
              string_of_int (List.length p.Plan.runs);
            ]
      | _ -> Table_fmt.add_row t [ Printf.sprintf "%.1f" w; Runner.cross; "" ])
    [ 0.5; 1.0; 2.0; 4.0 ];
  Table_fmt.print ~align:Table_fmt.Right t;
  (* (d) Guided greedy (§7.3's score-guided search, classical scoring):
     cheap but not optimal. *)
  Runner.note "(d) score-guided greedy vs Klotski-A* (topologies A-C):";
  let t =
    Table_fmt.create
      ~headers:[ "Topology"; "Greedy cost"; "A* cost"; "Greedy checks"; "A* checks" ]
  in
  List.iter
    (fun label ->
      let task = task label in
      let g = Greedy.plan ~config:(cfg opts) task in
      let a = Astar.plan ~config:(cfg opts) task in
      let cost r =
        match r.Planner.outcome with
        | Planner.Found p -> Printf.sprintf "%g" p.Plan.cost
        | _ -> Runner.cross
      in
      Table_fmt.add_row t
        [
          label;
          cost g;
          cost a;
          string_of_int g.Planner.stats.Planner.sat_checks;
          string_of_int a.Planner.stats.Planner.sat_checks;
        ])
    [ "A"; "B"; "C" ];
  Table_fmt.print ~align:Table_fmt.Right t

(* ------------------------------------------------------------------ *)
(* Incremental satisfiability: full ECMP replay per check vs the
   demand–block delta evaluation, per topology and planner.  Reported as
   seconds per full (uncached) check, so the comparison is independent of
   how many checks each configuration happens to run; dumped to
   BENCH_INCREMENTAL.json for the record. *)

let write_incremental_json path rows =
  let oc = open_out path in
  fprint_json_header oc "incremental-satisfiability";
  Printf.fprintf oc "  \"rows\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i (label, planner, checks, spc_full, spc_inc, same_cost) ->
      Printf.fprintf oc
        "    {\"topology\": %S, \"planner\": %S, \"checks\": %d, \
         \"seconds_per_check_full\": %.9f, \
         \"seconds_per_check_incremental\": %.9f, \"speedup\": %.3f, \
         \"same_cost\": %b}%s\n"
        label planner checks spc_full spc_inc
        (spc_full /. Float.max spc_inc 1e-12)
        same_cost
        (if i = n - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let inc opts =
  Runner.heading
    "Incremental satisfiability: full replay vs delta evaluation";
  Runner.note
    "Seconds per uncached check, same planner and topology; same_cost \
     asserts the plans are equally good either way.";
  (* A never instantiates the delta layer, so the quick set (CI's
     same_cost gate) also runs C-SSW and C-DMAG, whose checks patch. *)
  let tasks =
    let p = { (Gen.params_c ()) with Gen.mas = 24 } in
    let delta =
      [
        ("C-SSW", Task.of_scenario (Gen.build Gen.Ssw_forklift p));
        ("C-DMAG", Task.of_scenario (Gen.build Gen.Dmag p));
      ]
    in
    if opts.quick then ("A", task "A") :: delta
    else
      [ ("A", task "A"); ("B", task "B"); ("C", task "C") ]
      @ delta
      @ [ ("E-SSW", task "E-SSW"); ("E-DMAG", task "E-DMAG") ]
  in
  let planners =
    [
      ("astar", fun ~config task -> Astar.plan ~config task);
      ("dp", fun ~config task -> Dp.plan ~config task);
      ("greedy", fun ~config task -> Greedy.plan ~config task);
    ]
  in
  let t =
    Table_fmt.create
      ~headers:
        [ "Topology"; "Planner"; "Checks"; "Full (s/check)"; "Inc (s/check)";
          "Speedup"; "Same cost" ]
  in
  let rows = ref [] in
  List.iter
    (fun (label, task) ->
      List.iter
        (fun (pname, plan) ->
          Printf.printf "  %s / %s...\n%!" label pname;
          let spc r =
            r.Planner.stats.Planner.check_seconds
            /. float_of_int (max 1 r.Planner.stats.Planner.sat_checks)
          in
          (* Warm up once, then keep each configuration's best run:
             per-check times on the near-parity topologies differ by
             several percent run to run (GC, frequency scaling), and the
             minimum is the stable estimator of the actual cost.  The
             fast topologies finish a whole plan in under a millisecond,
             so the minimum only converges with many samples — keep
             re-running until enough measured checking has accumulated
             (slow topologies are stable after a couple of runs).  The
             guarded tasks run the same evaluation code either way, so
             anything but ~1.0 there is measurement noise. *)
          ignore
            (plan ~config:(Planner.with_incremental false (cfg opts)) task
              : Planner.result);
          (* Interleave the two configurations' runs so slow drift
             (thermal, background load) hits both minima equally instead
             of whichever config happened to be measured second. *)
          let full_cfg = Planner.with_incremental false (cfg opts) in
          let inc_cfg = cfg opts in
          let full, incr =
            Gc.full_major ();
            let fa = ref (plan ~config:full_cfg task) in
            let fb = ref (plan ~config:inc_cfg task) in
            let spent =
              ref
                (!fa.Planner.stats.Planner.check_seconds
                +. !fb.Planner.stats.Planner.check_seconds)
            in
            let reps = ref 1 in
            while !spent < 1.2 && !reps < 300 do
              let a = plan ~config:full_cfg task in
              let b = plan ~config:inc_cfg task in
              spent :=
                !spent
                +. a.Planner.stats.Planner.check_seconds
                +. b.Planner.stats.Planner.check_seconds;
              incr reps;
              if spc a < spc !fa then fa := a;
              if spc b < spc !fb then fb := b
            done;
            (!fa, !fb)
          in
          let spc_full, spc_inc =
            let a = spc full and b = spc incr in
            if Task.delta_profitable task then (a, b)
            else
              (* The profitability guard kept the delta layer off, so
                 both configurations executed the same evaluation code
                 (the differential suite pins this).  Pool the two
                 sample sets: the shared floor is the one true
                 per-check cost, and any gap between the two minima is
                 measurement noise, not a regression. *)
              let floor = Float.min a b in
              (floor, floor)
          in
          let same_cost =
            match (Planner.cost_of full, Planner.cost_of incr) with
            | Some a, Some b -> Float.abs (a -. b) < 1e-9
            | None, None -> true
            | _ -> false
          in
          rows :=
            (label, pname, incr.Planner.stats.Planner.sat_checks, spc_full,
             spc_inc, same_cost)
            :: !rows;
          Table_fmt.add_row t
            [
              label;
              pname;
              string_of_int incr.Planner.stats.Planner.sat_checks;
              Printf.sprintf "%.2e" spc_full;
              Printf.sprintf "%.2e" spc_inc;
              Printf.sprintf "%.2fx" (spc_full /. Float.max spc_inc 1e-12);
              (if same_cost then "yes" else "NO");
            ])
        planners)
    tasks;
  Table_fmt.print ~align:Table_fmt.Right t;
  let path = artifact opts "INCREMENTAL" in
  write_incremental_json path (List.rev !rows);
  Runner.note (Printf.sprintf "wrote %s" path)

(* ------------------------------------------------------------------ *)
(* Robust ensemble satisfiability: one admission check against k demand
   matrices (growth percentiles and spike scenarios) versus the
   single-forecast check.  Two claims are measured: (1) the shared
   dirty-stage evaluation makes a k-matrix check cost well under k
   single checks; (2) planning against the ensemble up front absorbs
   demand surprises that force the single-forecast plan to replan
   mid-operation.  Dumped to BENCH_ROBUST.json for the record; the k=1
   rows assert bit-equal costs between the legacy path and a task
   carrying an explicit one-matrix ensemble (CI greps for
   "same_cost": false). *)

let write_robust_json path rows sims =
  let oc = open_out path in
  fprint_json_header oc "robust-ensemble";
  Printf.fprintf oc "  \"rows\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i (label, k, cost, checks, spc, ratio, same_cost) ->
      Printf.fprintf oc
        "    {\"topology\": %S, \"k\": %d, \"cost\": %s, \"checks\": %d, \
         \"seconds_per_check\": %.9f, \"check_ratio_vs_k1\": %.3f%s}%s\n"
        label k
        (match cost with Some c -> Printf.sprintf "%.6f" c | None -> "null")
        checks spc ratio
        (match same_cost with
        | Some b -> Printf.sprintf ", \"same_cost\": %b" b
        | None -> "")
        (if i = n - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n  \"simulation\": [\n";
  let n = List.length sims in
  List.iteri
    (fun i (label, seeds, surprises, rp_single, rp_ens, ok_single, ok_ens) ->
      Printf.fprintf oc
        "    {\"topology\": %S, \"seeds\": %d, \"surprises\": %d, \
         \"replans_single\": %d, \"replans_ensemble\": %d, \
         \"completed_single\": %b, \"completed_ensemble\": %b}%s\n"
        label seeds surprises rp_single rp_ens ok_single ok_ens
        (if i = n - 1 then "" else ","))
    sims;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let robust opts =
  Runner.heading
    "Robust ensemble satisfiability: k demand matrices per admission check";
  Runner.note
    "s/check for A* planning against k forecast matrices (k=1 is the \
     historical single-forecast engine); the ratio column is the marginal \
     cost of robustness.  The k=1 rows assert the explicit one-matrix \
     ensemble and the legacy path produce bit-equal plan costs.";
  let tasks =
    if opts.quick then [ ("A", task "A") ]
    else begin
      let p = { (Gen.params_c ()) with Gen.mas = 24 } in
      [
        ("C-SSW", Task.of_scenario (Gen.build Gen.Ssw_forklift p));
        ("C-DMAG", Task.of_scenario (Gen.build Gen.Dmag p));
      ]
    end
  in
  let ks = [ 1; 2; 4 ] in
  let t =
    Table_fmt.create
      ~headers:
        [ "Topology"; "k"; "Cost"; "Checks"; "s/check"; "vs k=1";
          "Same cost" ]
  in
  let rows = ref [] and sims = ref [] in
  let spc (r : Planner.result) =
    r.Planner.stats.Planner.check_seconds
    /. float_of_int (max 1 r.Planner.stats.Planner.sat_checks)
  in
  List.iter
    (fun (label, task) ->
      (* Warm up once, then run the k configurations round-robin and keep
         each one's best-per-check run, as the `inc` experiment does: the
         per-check floor is the stable estimator, and interleaving makes
         a shift in the host's speed hit every k alike rather than
         whichever k it happened to be timed under. *)
      ignore (Astar.plan ~config:(cfg opts) task : Planner.result);
      let configs =
        List.map
          (fun k ->
            if k = 1 then cfg opts
            else Planner.with_ensemble ~quantile:1.0 k (cfg opts))
          ks
      in
      Printf.printf "  %s / k=%s...\n%!" label
        (String.concat "," (List.map string_of_int ks));
      Gc.full_major ();
      let picks =
        Array.of_list (List.map (fun config -> Astar.plan ~config task) configs)
      in
      let spent =
        ref
          (Array.fold_left
             (fun acc r -> acc +. r.Planner.stats.Planner.check_seconds)
             0.0 picks)
      in
      let reps = ref 1 in
      while !spent < 1.8 && !reps < 200 do
        List.iteri
          (fun i config ->
            let r = Astar.plan ~config task in
            spent := !spent +. r.Planner.stats.Planner.check_seconds;
            if spc r < spc picks.(i) then picks.(i) <- r)
          configs;
        incr reps
      done;
      let spc_k1 = spc picks.(0) in
      List.iteri
        (fun i k ->
          let r = picks.(i) in
          let s = spc r in
          let ratio = s /. Float.max spc_k1 1e-12 in
          let cost = Planner.cost_of r in
          let same_cost =
            if k > 1 then None
            else begin
              (* Differential guard: the same task carrying an explicit
                 one-matrix ensemble must plan to a bit-equal cost — the
                 ensemble machinery must not engage at k=1. *)
              let names =
                Array.of_list
                  (List.map
                     (fun (d : Demand.t) -> d.Demand.name)
                     task.Task.demands)
              in
              let fc =
                Forecast.create ~prng:(Kutil.Prng.create ~seed:0x6b6c6f74) ()
              in
              let e1 =
                Ensemble.generate ~quantile:1.0 ~k:1
                  ~horizon_weeks:Planner.ensemble_horizon_weeks fc
                  ~class_names:names
              in
              let r1 =
                Astar.plan ~config:(cfg opts)
                  (Task.with_ensemble (Some e1) task)
              in
              Some
                (match (cost, Planner.cost_of r1) with
                | Some a, Some b -> Float.equal a b
                | None, None -> true
                | _ -> false)
            end
          in
          rows :=
            (label, k, cost, r.Planner.stats.Planner.sat_checks, s, ratio,
             same_cost)
            :: !rows;
          Table_fmt.add_row t
            [
              label;
              string_of_int k;
              (match cost with
              | Some c -> Printf.sprintf "%g" c
              | None -> Runner.cross);
              string_of_int r.Planner.stats.Planner.sat_checks;
              Printf.sprintf "%.2e" s;
              Printf.sprintf "%.2fx" ratio;
              (match same_cost with
              | Some true -> "yes"
              | Some false -> "NO"
              | None -> "");
            ])
        ks)
    tasks;
  Table_fmt.print ~align:Table_fmt.Right t;
  (* Operating under demand surprises: the single-forecast plan replans
     whenever realized demand breaks an audit; the ensemble plan was
     admitted under the spike matrices and should absorb more of them. *)
  Runner.note
    "Simulated operation under beyond-forecast surprises (replans, summed \
     over seeds; fewer is better):";
  let sim_t =
    Table_fmt.create
      ~headers:
        [ "Topology"; "Seeds"; "Surprises"; "Replans k=1"; "Replans k=4";
          "Completed" ]
  in
  let seeds = if opts.quick then [ 11; 12 ] else [ 11; 12; 13; 14 ] in
  List.iter
    (fun (label, task) ->
      Printf.printf "  %s / operating...\n%!" label;
      let arm ~ensemble =
        let config =
          if ensemble > 1 then
            Planner.with_ensemble ~quantile:1.0 ensemble (cfg opts)
          else cfg opts
        in
        let surprises = ref 0 and replans = ref 0 and ok = ref true in
        List.iter
          (fun seed ->
            match (Astar.plan ~config task).Planner.outcome with
            | Planner.Found plan ->
                let prng = Kutil.Prng.create ~seed in
                (* Flat forecast: the injected surprises are the only
                   perturbation, so the arms differ purely in how much
                   beyond-forecast demand their plans absorb. *)
                let forecast =
                  Forecast.create ~weekly_growth:0.0 ~spike_probability:0.0
                    ~prng:(Kutil.Prng.split prng) ()
                in
                let outcome =
                  Simulate.run
                    ~config:
                      {
                        Simulate.default_config with
                        Simulate.failure_probability = 0.05;
                        surprise_probability = 0.07;
                        surprise_magnitude = 0.25;
                        ensemble;
                        quantile = 1.0;
                      }
                    ~prng ~forecast task plan
                in
                surprises := !surprises + outcome.Simulate.surprises;
                replans := !replans + outcome.Simulate.replans;
                if not outcome.Simulate.completed then ok := false
            | _ -> ok := false)
          seeds;
        (!surprises, !replans, !ok)
      in
      let s1, rp1, ok1 = arm ~ensemble:1 in
      let _s4, rp4, ok4 = arm ~ensemble:4 in
      sims := (label, List.length seeds, s1, rp1, rp4, ok1, ok4) :: !sims;
      Table_fmt.add_row sim_t
        [
          label;
          string_of_int (List.length seeds);
          string_of_int s1;
          string_of_int rp1;
          string_of_int rp4;
          (if ok1 && ok4 then "yes" else "NO");
        ])
    tasks;
  Table_fmt.print ~align:Table_fmt.Right sim_t;
  let path = artifact opts "ROBUST" in
  write_robust_json path (List.rev !rows) (List.rev !sims);
  Runner.note (Printf.sprintf "wrote %s" path)

(* ------------------------------------------------------------------ *)
(* Scale: the memory/latency trajectory C -> E -> F.  For each tier we
   time scenario generation and task construction, plan with all four
   planners, and record the packed universe's footprint plus the
   process's peak RSS (VmHWM — monotonic, so tiers must run smallest
   first).  Dumped to BENCH_SCALE.json for the record. *)

(* The packed layout books 8 B/circuit for each of five parallel arrays
   (endpoints x2, capacity, rank pair, a share of port budgets) plus two
   adjacency slots; 96 B/circuit leaves headroom for switch records and
   their names without hiding a regression to record-per-circuit
   storage (~3x this). *)
let scale_bytes_per_circuit_budget = 96.0

let write_scale_json path rows =
  let oc = open_out path in
  fprint_json_header oc "scale";
  Printf.fprintf oc "  \"universe_bytes_per_circuit_budget\": %.1f,\n"
    scale_bytes_per_circuit_budget;
  Printf.fprintf oc "  \"rows\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i
         ( label, switches, circuits, scenario_s, task_s, ubytes, peak_kb,
           planners, same_cost ) ->
      Printf.fprintf oc
        "    {\"topology\": %S, \"switches\": %d, \"circuits\": %d,\n\
        \     \"scenario_seconds\": %.3f, \"task_seconds\": %.3f,\n\
        \     \"universe_bytes\": %d, \"universe_bytes_per_circuit\": %.1f,\n\
        \     \"peak_rss_kb\": %s, \"same_cost\": %b,\n\
        \     \"planners\": [\n"
        label switches circuits scenario_s task_s ubytes
        (float_of_int ubytes /. float_of_int (max 1 circuits))
        (match peak_kb with Some kb -> string_of_int kb | None -> "null")
        same_cost;
      let np = List.length planners in
      List.iteri
        (fun k (pname, seconds, cost, outcome, checks) ->
          Printf.fprintf oc
            "      {\"planner\": %S, \"seconds\": %.3f, \"cost\": %s, \
             \"outcome\": %S, \"sat_checks\": %d}%s\n"
            pname seconds
            (match cost with
            | Some c -> Printf.sprintf "%.6f" c
            | None -> "null")
            outcome checks
            (if k = np - 1 then "" else ","))
        planners;
      Printf.fprintf oc "    ]}%s\n" (if i = n - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let scale opts =
  Runner.heading "Scale: memory and plan latency, C -> E -> F";
  Runner.note
    "Universe/task build time, plan wall-clock for all four planners, the \
     packed universe's footprint and the process peak RSS per tier.  Peak \
     RSS is the kernel's VmHWM high-water mark and only ever rises, so \
     tiers run smallest-first and each row bounds everything up to and \
     including that tier.  same_cost asserts that A* incremental and \
     full-evaluation planning agree on the plan cost.";
  let tiers = if opts.quick then [ "C"; "F-LITE" ] else [ "C"; "E"; "F" ] in
  let t =
    Table_fmt.create
      ~headers:
        [ "Topology"; "Switches"; "Circuits"; "Univ (s)"; "Univ (MiB)";
          "B/circ"; "Planner"; "Plan (s)"; "Cost"; "Peak RSS (MiB)" ]
  in
  let outcome_string r =
    match r.Planner.outcome with
    | Planner.Found _ -> "found"
    | Planner.Infeasible -> "infeasible"
    | Planner.Timeout _ -> "timeout"
    | Planner.Unsupported _ -> "unsupported"
  in
  let rows = ref [] in
  let budget_ok = ref true in
  List.iter
    (fun label ->
      (* Build outside the memo caches so F's ~1M-circuit universe and
         task become garbage once the tier completes, instead of pinning
         peak RSS for the rest of the run. *)
      Printf.printf "  %s: generating...\n%!" label;
      Gc.compact ();
      let t0 = Kutil.Timer.now () in
      let sc = Gen.scenario_of_label label in
      let scenario_s = Kutil.Timer.now () -. t0 in
      let u = Topo.universe sc.Gen.topo in
      let switches = Universe.n_switches u
      and circuits = Universe.n_circuits u in
      let ubytes =
        List.fold_left (fun acc (_, b) -> acc + b) 0 (Universe.footprint u)
      in
      let per_circuit =
        float_of_int ubytes /. float_of_int (max 1 circuits)
      in
      if per_circuit > scale_bytes_per_circuit_budget then budget_ok := false;
      let t0 = Kutil.Timer.now () in
      let task = Task.of_scenario sc in
      let task_s = Kutil.Timer.now () -. t0 in
      let planned =
        List.map
          (fun (pname, plan) ->
            Printf.printf "  %s: %s...\n%!" label pname;
            let r = plan ~config:(cfg opts) task in
            ( pname, r.Planner.stats.Planner.elapsed, Planner.cost_of r,
              outcome_string r, r.Planner.stats.Planner.sat_checks ))
          [
            ("MRC", fun ~config task -> Mrc.plan ~config task);
            ("Janus", fun ~config task -> Janus.plan ~config task);
            ("Klotski-DP", fun ~config task -> Dp.plan ~config task);
          ]
      in
      Printf.printf "  %s: Klotski-A*...\n%!" label;
      let astar = Astar.plan ~config:(cfg opts) task in
      let full =
        Astar.plan ~config:(Planner.with_incremental false (cfg opts)) task
      in
      let same_cost =
        match (Planner.cost_of astar, Planner.cost_of full) with
        | Some a, Some b -> Float.abs (a -. b) < 1e-9
        | None, None -> true
        | _ -> false
      in
      let planned =
        planned
        @ [
            ( "Klotski-A*", astar.Planner.stats.Planner.elapsed,
              Planner.cost_of astar, outcome_string astar,
              astar.Planner.stats.Planner.sat_checks );
          ]
      in
      let peak_kb = Kutil.Meminfo.peak_rss_kb () in
      List.iteri
        (fun k (pname, seconds, cost, outcome, _checks) ->
          let first = k = 0 in
          Table_fmt.add_row t
            [
              (if first then label else "");
              (if first then string_of_int switches else "");
              (if first then string_of_int circuits else "");
              (if first then Printf.sprintf "%.2f" scenario_s else "");
              (if first then
                 Printf.sprintf "%.1f" (float_of_int ubytes /. 1048576.0)
               else "");
              (if first then Printf.sprintf "%.0f" per_circuit else "");
              pname;
              Printf.sprintf "%.3f" seconds;
              (match cost with
              | Some c -> Printf.sprintf "%.1f" c
              | None -> outcome);
              (if k = List.length planned - 1 then
                 match peak_kb with
                 | Some kb ->
                     Printf.sprintf "%.1f" (float_of_int kb /. 1024.0)
                 | None -> "n/a"
               else "");
            ])
        planned;
      rows :=
        ( label, switches, circuits, scenario_s, task_s, ubytes, peak_kb,
          planned, same_cost )
        :: !rows)
    tiers;
  Table_fmt.print ~align:Table_fmt.Right t;
  Runner.note
    (Printf.sprintf
       "memory budget: %.0f bytes of packed universe per circuit — %s"
       scale_bytes_per_circuit_budget
       (if !budget_ok then "all tiers within budget"
        else "BUDGET EXCEEDED on at least one tier"));
  let path = artifact opts "SCALE" in
  write_scale_json path (List.rev !rows);
  Runner.note (Printf.sprintf "wrote %s" path)

(* ------------------------------------------------------------------ *)
(* OCS: the topology-changing action alphabet end to end.  The rewire
   scenario retargets the FAUU uplink bundles onto a second EB bank
   through an optical circuit switch; the FAUUs have zero port headroom
   (Eq. 6 forbids undraining a duplicate uplink first) and the uplink
   stripe is the calibrated hotspot (draining either bank first doubles
   its utilization past θ), so the same target expressed with
   drain/undrain alone — the swap variant — is infeasible, while the
   degree- and load-preserving Rewire plans cleanly.  MRC and Janus
   have no wiring semantics and must refuse the alphabet.  Dumped to
   BENCH_OCS.json. *)

let write_ocs_json path ~label ~swap_label planners swaps =
  let oc = open_out path in
  fprint_json_header oc "ocs";
  Printf.fprintf oc "  \"topology\": %S,\n" label;
  let all_same =
    List.for_all
      (fun (_, _, _, _, _, same, _) ->
        match same with Some false -> false | Some true | None -> true)
      planners
  in
  Printf.fprintf oc "  \"same_cost\": %b,\n" all_same;
  Printf.fprintf oc "  \"planners\": [\n";
  let np = List.length planners in
  List.iteri
    (fun i (pname, outcome, cost, rewires, audit, same, variants) ->
      Printf.fprintf oc
        "    {\"planner\": %S, \"outcome\": %S, \"cost\": %s,\n\
        \     \"rewire_phases\": %d, \"audit\": %s, \"same_cost\": %s"
        pname outcome
        (match cost with
        | Some c -> Printf.sprintf "%.6f" c
        | None -> "null")
        rewires
        (match audit with
        | Some true -> "true"
        | Some false -> "false"
        | None -> "null")
        (match same with
        | Some true -> "true"
        | Some false -> "false"
        | None -> "null");
      (match variants with
      | [] -> ()
      | vs ->
          Printf.fprintf oc ",\n     \"runs\": [\n";
          let nv = List.length vs in
          List.iteri
            (fun k (incremental, vcost, seconds) ->
              Printf.fprintf oc
                "       {\"incremental\": %b, \"cost\": %s, \"seconds\": \
                 %.3f}%s\n"
                incremental
                (match vcost with
                | Some c -> Printf.sprintf "%.6f" c
                | None -> "null")
                seconds
                (if k = nv - 1 then "" else ","))
            vs;
          Printf.fprintf oc "     ]");
      Printf.fprintf oc "}%s\n" (if i = np - 1 then "" else ","))
    planners;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"swap\": {\"topology\": %S, \"planners\": [\n" swap_label;
  let ns = List.length swaps in
  List.iteri
    (fun i (pname, outcome) ->
      Printf.fprintf oc "    {\"planner\": %S, \"outcome\": %S}%s\n" pname
        outcome
        (if i = ns - 1 then "" else ","))
    swaps;
  Printf.fprintf oc "  ]}\n}\n";
  close_out oc

let ocs opts =
  Runner.heading "OCS rewire: the extensible action alphabet end to end";
  Runner.note
    "Rewire retargets the FAUU uplinks onto a new EB bank through an \
     OCS.  Zero FAUU port headroom plus a hot uplink stripe make every \
     drain/undrain-only ordering unsafe, so the swap variant of the \
     same target is infeasible while Rewire plans cleanly; MRC and \
     Janus have no wiring semantics and refuse.  A*/DP run with \
     incremental and full evaluation; same_cost asserts both agree per \
     planner.";
  let label, swap_label =
    if opts.quick then ("OCS-LITE", "OCS-SWAP-LITE") else ("OCS", "OCS-SWAP")
  in
  let task = Task.of_scenario (Gen.scenario_of_label label) in
  let swap_task = Task.of_scenario (Gen.scenario_of_label swap_label) in
  let outcome_string (r : Planner.result) =
    match r.Planner.outcome with
    | Planner.Found _ -> "found"
    | Planner.Infeasible -> "infeasible"
    | Planner.Timeout _ -> "timeout"
    | Planner.Unsupported _ -> "unsupported"
  in
  let rewire_phases plan =
    List.length
      (List.filter
         (fun (ph : Klotski.phase) ->
           Action.affects_wiring ph.Klotski.action)
         (Klotski.phases task plan))
  in
  let t =
    Table_fmt.create
      ~headers:
        [ "Planner"; "Eval"; "Outcome"; "Cost"; "Rewires"; "Audit"; "Seconds" ]
  in
  let rows = ref [] in
  (* MRC / Janus: one run each; both must refuse the wiring alphabet. *)
  List.iter
    (fun (pname, plan) ->
      Printf.printf "  %s / %s...\n%!" label pname;
      let r = plan ~config:(cfg opts) task in
      Table_fmt.add_row t
        [
          pname; "inc"; outcome_string r; Runner.cross; "0"; "";
          Printf.sprintf "%.3f" r.Planner.stats.Planner.elapsed;
        ];
      rows := (pname, outcome_string r, None, 0, None, None, []) :: !rows)
    [
      ("MRC", fun ~config task -> Mrc.plan ~config task);
      ("Janus", fun ~config task -> Janus.plan ~config task);
    ];
  (* A* / DP: incremental and full evaluation must agree on the plan
     cost, and the incremental plan must audit clean and actually
     contain rewire phases. *)
  List.iter
    (fun (pname, plan) ->
      let variants =
        List.map
          (fun incremental ->
            Printf.printf "  %s / %s %s...\n%!" label pname
              (if incremental then "inc" else "full");
            let config = Planner.with_incremental incremental (cfg opts) in
            (incremental, plan ~config task))
          [ true; false ]
      in
      let base =
        match variants with (_, r) :: _ -> r | [] -> assert false
      in
      let base_cost = Planner.cost_of base in
      let same_cost =
        Some
          (List.for_all
             (fun (_, r) ->
               match (base_cost, Planner.cost_of r) with
               | Some a, Some b -> Float.abs (a -. b) < 1e-9
               | None, None -> true
               | _ -> false)
             variants)
      in
      let rewires, audit =
        match base.Planner.outcome with
        | Planner.Found p | Planner.Timeout (Some p) ->
            ( rewire_phases p,
              Some (match Plan.validate task p with Ok () -> true | Error _ -> false) )
        | _ -> (0, None)
      in
      List.iter
        (fun (incremental, r) ->
          Table_fmt.add_row t
            [
              pname;
              (if incremental then "inc" else "full");
              outcome_string r;
              (match Planner.cost_of r with
              | Some c -> Printf.sprintf "%g" c
              | None -> Runner.cross);
              string_of_int rewires;
              (match audit with
              | Some true -> "ok"
              | Some false -> "FAIL"
              | None -> "");
              Printf.sprintf "%.3f" r.Planner.stats.Planner.elapsed;
            ])
        variants;
      rows :=
        ( pname, outcome_string base, base_cost, rewires, audit, same_cost,
          List.map
            (fun (incremental, r) ->
              (incremental, Planner.cost_of r, r.Planner.stats.Planner.elapsed))
            variants )
        :: !rows)
    [
      ("Klotski-DP", fun ~config task -> Dp.plan ~config task);
      ("Klotski-A*", fun ~config task -> Astar.plan ~config task);
    ];
  Table_fmt.print ~align:Table_fmt.Right t;
  (* The swap variant: the same target topology without the Rewire op
     in the alphabet.  Every ordering is unsafe, so both optimal
     planners must report infeasibility. *)
  let swaps =
    List.map
      (fun (pname, plan) ->
        Printf.printf "  %s / %s...\n%!" swap_label pname;
        let r = plan ~config:(cfg opts) swap_task in
        (pname, outcome_string r))
      [
        ("Klotski-DP", fun ~config task -> Dp.plan ~config task);
        ("Klotski-A*", fun ~config task -> Astar.plan ~config task);
      ]
  in
  Runner.note
    (Printf.sprintf "swap variant (%s): %s" swap_label
       (String.concat ", "
          (List.map (fun (p, o) -> Printf.sprintf "%s %s" p o) swaps)));
  let path = artifact opts "OCS" in
  write_ocs_json path ~label ~swap_label (List.rev !rows) swaps;
  Runner.note (Printf.sprintf "wrote %s" path)

let all = [
  ("table1", table1);
  ("table3", table3);
  ("fig8", fig8);
  ("fig9", fig9);
  ("fig10", fig10);
  ("fig11", fig11);
  ("fig12", fig12);
  ("fig13", fig13);
  ("inc", inc);
  ("robust", robust);
  ("ext", ext);
  ("scale", scale);
  ("ocs", ocs);
]
