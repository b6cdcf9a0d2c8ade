(* The repository benchmark: the time a user waits from an NPD document
   to an audited, exported plan, end to end and layer by layer.

   One process runs one workload from a demand seed:

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   A pass is the workload's user operation, run in a closed loop (one
   client, jobs = 1, the next pass starts when the previous one ends).
   Every pass is checked, and its deterministic counts must equal the
   first pass's.  With --trace 0 the run reports the end-to-end metrics
   over the passes of the measured window.  With --trace 1 it alternates
   untraced and traced passes, times each layer's public call from
   outside, and splits the median traced pass across the layers.
   The last line of standard output is the result as one JSON object.

   Wall time comes only from [Kutil.Timer] and memory only from
   [Kutil.Meminfo], so this file stays clean under klotski-lint R4. *)

let now = Kutil.Timer.now

(* Words allocated so far.  [Gc.minor_words] is exact; the runtime folds
   direct major allocations into its counters at the next major slice,
   so a reading can lag those by one slice. *)
let words_allocated () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let mib_of_kb kb = float_of_int (Option.value kb ~default:0) /. 1024.0

(* ------------------------------------------------------------------ *)
(* Spans *)

(* One span per layer call the benchmark makes, kept in memory and
   written out when the run ends.  Disabled, [span] is one branch. *)
module Span = struct
  type t = {
    id : int;
    name : string;
    parent : int;  (** -1 for a root. *)
    pass : int;
    start : float;
    stop : float;
    words : float;  (** Words allocated between start and stop. *)
  }

  type recorder = {
    mutable on : bool;
    mutable pass : int;  (** Stamped on every span recorded. *)
    mutable all : t list;  (** Newest first. *)
    mutable stack : int list;  (** Open spans, innermost first. *)
    mutable next_id : int;
  }

  let recorder () = { on = false; pass = 0; all = []; stack = []; next_id = 0 }

  let span tr name f =
    if not tr.on then f ()
    else begin
      let id = tr.next_id in
      tr.next_id <- id + 1;
      let parent = match tr.stack with p :: _ -> p | [] -> -1 in
      tr.stack <- id :: tr.stack;
      let w0 = words_allocated () in
      let start = now () in
      let finish () =
        let stop = now () in
        let words = words_allocated () -. w0 in
        tr.stack <- List.tl tr.stack;
        tr.all <- { id; name; parent; pass = tr.pass; start; stop; words } :: tr.all
      in
      match f () with
      | r ->
          finish ();
          r
      | exception e ->
          finish ();
          raise e
    end

  let duration s = s.stop -. s.start
  let of_pass tr p =
    List.rev (List.filter (fun (s : t) -> Int.equal s.pass p) tr.all)

  (* Self time: the span minus the time its children cover.  Children
     run sequentially inside their parent, so they cover their sum. *)
  let self spans s =
    List.fold_left
      (fun acc c -> if Int.equal c.parent s.id then acc -. duration c else acc)
      (duration s) spans

  let to_json s =
    Printf.sprintf
      {|{"id": %d, "name": %S, "parent": %d, "pass": %d, "start": %.17g, "end": %.17g, "words": %.17g}|}
      s.id s.name s.parent s.pass s.start s.stop s.words
end

let span = Span.span

(* ------------------------------------------------------------------ *)
(* Workloads *)

type op =
  | Plan  (** NPD → task → A* → audit → export. *)
  | Replan  (** [Plan], then replans at fixed prefixes under growth. *)
  | Check  (** NPD → task → one evaluation of the original state. *)

type workload = {
  name : string;
  kind : Gen.kind;
  params : unit -> Gen.params;
  op : op;
}

(* Why each workload is here is recorded in BENCHMARK.json and
   perfbench/README.md. *)
let workloads =
  let w name kind params op = { name; kind; params; op } in
  [
    w "hgrid-d" Gen.Hgrid_v1_to_v2 Gen.params_d Plan;
    w "ssw-e" Gen.Ssw_forklift Gen.params_e Plan;
    w "replan-dmag-e" Gen.Dmag Gen.params_e Replan;
    w "check-f" Gen.Hgrid_v1_to_v2 Gen.params_f Check;
  ]

(* The self-test runs every workload's code path on the tiny tiers. *)
let tiny w =
  match w.op with
  | Plan | Check -> { w with params = Gen.params_a }
  | Replan -> { w with kind = Gen.Ocs_rewire; params = Gen.params_ocs_lite }

(* Replans happen after these shares of the initial plan's blocks, with
   every class grown by [growth_per_replan] more each time. *)
let replan_points = [ 0.125; 0.25; 0.375; 0.5; 0.625; 0.75; 0.875 ]
let growth_per_replan = 0.01

(* ------------------------------------------------------------------ *)
(* One pass *)

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

type result = {
  pins : (string * float) list;
      (** Deterministic counts, compared with the first pass's. *)
  setup_s : float;  (** NPD text to a ready task. *)
  pass_s : float;
  ops : int;  (** Operations: the pass plus one per replan. *)
  scenario : Gen.scenario;
  task : Task.t;
  task_rss_mib : float;  (** VmRSS once the task is ready. *)
  peak_rss_mib : float;  (** VmHWM when the pass ends. *)
  plan : Plan.t option;
  stats : Planner.stats option;  (** The initial plan's search. *)
  replans : Planner.stats list;
}

let config = Planner.default_config

let plan_found tr task =
  let r = span tr "planner.search" (fun () -> Klotski.plan ~config task) in
  match r.Planner.outcome with
  | Planner.Found p -> (p, r.Planner.stats)
  | Planner.Infeasible -> fail "%s: infeasible" task.Task.name
  | Planner.Timeout _ -> fail "%s: timeout" task.Task.name
  | Planner.Unsupported m -> fail "%s: unsupported (%s)" task.Task.name m

(* The independent audit, then the export and its re-parse. *)
let audit tr task plan =
  (match span tr "plan.validate" (fun () -> Plan.validate task plan) with
  | Ok () -> ()
  | Error e -> fail "audit: %s" e);
  span tr "npd_export" (fun () ->
      let text = Npd_printer.to_string (Npd_export.plan_to_npd task plan) in
      match Npd_export.phases_of_npd (Npd_parser.parse text) with
      | Error e -> fail "export re-parse: %s" e
      | Ok phases ->
          let n = List.length plan.Plan.runs in
          if not (Int.equal (List.length phases) n) then
            fail "export re-parses to %d phases, the plan has %d"
              (List.length phases) n)

let stats_pins prefix (s : Planner.stats) =
  [
    (prefix ^ "sat_checks", float_of_int s.Planner.sat_checks);
    (prefix ^ "cache_hits", float_of_int s.Planner.cache_hits);
    (prefix ^ "expanded", float_of_int s.Planner.expanded);
    (prefix ^ "generated", float_of_int s.Planner.generated);
  ]

(* The executed prefix and the demand scales of replan [i]. *)
let replan_input task plan i share =
  let k = int_of_float (share *. float_of_int (Plan.length plan)) in
  let executed = List.filteri (fun j _ -> j < k) plan.Plan.blocks in
  let g = 1.0 +. (growth_per_replan *. float_of_int (i + 1)) in
  (executed, Array.make (Array.length task.Task.compiled) g)

let replan tr task plan i share =
  let executed, demand_scales = replan_input task plan i share in
  let r, task', _ =
    span tr "klotski.replan" (fun () ->
        Klotski.replan ~config task ~executed ~demand_scales)
  in
  match r.Planner.outcome with
  | Planner.Found p ->
      audit tr task' p;
      (p.Plan.cost, r.Planner.stats)
  | _ -> fail "replan %d: no plan" i

(* The timed part of a pass, from [t0]; also returns the words the RSS
   reading allocated. *)
let pass_body tr w ~seed ~t0 text =
  let doc = span tr "npd.parse" (fun () -> Npd_parser.parse text) in
  let sc =
    span tr "topology.build" (fun () ->
        match Npd_convert.to_scenario doc with
        | Ok sc -> sc
        | Error e -> fail "NPD conversion: %s" e)
  in
  let blocks = span tr "blocks.organize" (fun () -> Blocks.organize sc) in
  let task = span tr "task.build" (fun () -> Task.of_scenario ~seed ~blocks sc) in
  let setup_s = now () -. t0 in
  (* Reading /proc allocates by the length of its numbers: keep those
     words out of the pass's count. *)
  let rss_words = words_allocated () in
  let task_rss_mib = mib_of_kb (Kutil.Meminfo.rss_kb ()) in
  let rss_words = words_allocated () -. rss_words in
  let base =
    {
      pins = [];
      setup_s;
      pass_s = 0.0;
      ops = 1;
      scenario = sc;
      task;
      task_rss_mib;
      peak_rss_mib = 0.0;
      plan = None;
      stats = None;
      replans = [];
    }
  in
  let r =
    match w.op with
    | Check ->
        let s =
          span tr "constraint.evaluate" (fun () ->
              Constraint.evaluate_current (Constraint.create task))
        in
        if s.Constraint.stuck > 0.0 || s.Constraint.port_violations > 0 then
          fail "original state unsafe: stuck %g, %d port violations"
            s.Constraint.stuck s.Constraint.port_violations;
        if s.Constraint.max_util > task.Task.theta then
          fail "original state over theta: %g" s.Constraint.max_util;
        { base with pins = [ ("max_util", s.Constraint.max_util) ] }
    | Plan | Replan ->
        let plan, stats = plan_found tr task in
        audit tr task plan;
        let replans =
          match w.op with
          | Replan -> List.mapi (replan tr task plan) replan_points
          | Plan | Check -> []
        in
        let cost =
          List.fold_left (fun acc (c, _) -> acc +. c) plan.Plan.cost replans
        in
        let replan_pins =
          List.concat
            (List.mapi
               (fun i (_, s) -> stats_pins (Printf.sprintf "replan%d." i) s)
               replans)
        in
        {
          base with
          pins = (("plan_cost", cost) :: stats_pins "" stats) @ replan_pins;
          ops = 1 + List.length replans;
          plan = Some plan;
          stats = Some stats;
          replans = List.map snd replans;
        }
  in
  (r, rss_words)

let run_pass tr w ~seed text =
  let w0 = words_allocated () in
  let t0 = now () in
  let r, rss_words = span tr "pass" (fun () -> pass_body tr w ~seed ~t0 text) in
  let pass_s = now () -. t0 in
  (* A full major cycle folds every allocation of the pass into the
     counters, so the pass's word count is exact. *)
  Gc.full_major ();
  let words = words_allocated () -. w0 -. rss_words in
  let peak_rss_mib = mib_of_kb (Kutil.Meminfo.peak_rss_kb ()) in
  { r with pass_s; peak_rss_mib; pins = ("words", words) :: r.pins }

(* ------------------------------------------------------------------ *)
(* Probes: layer calls made outside the traced pass *)

(* What the probes measured. *)
type probe = {
  check_us : float array;  (** Each replayed [Constraint.check], in µs. *)
  replans : Planner.stats list;
}

(* [Task.of_scenario] runs route compilation, calibration and the
   dependency index internally, where the benchmark cannot wrap them; the
   traced run times them by calling them again on the same inputs, as it
   does [Klotski.remainder_task] inside [Klotski.replan].  The constraint
   replay creates its own checker and checks the plan's states (on the
   check workload, the origin's one-block successors) outside both cache
   and search.  The planning workloads also get the check path's
   evaluation, and [Plan] one replan at the plan's midpoint under the
   first growth step.  Search, audit and replan are not probed on the
   check workload: one search on F costs minutes. *)
let probes tr w (r : result) =
  let sc = r.scenario and task = r.task in
  let alts =
    List.concat_map
      (fun (_, circuits, new_hi) -> List.map (fun c -> (c, new_hi)) circuits)
      sc.Gen.rewire_groups
  in
  let compiled =
    span tr "traffic.routes" (fun () ->
        List.map
          (fun d ->
            Routes.compile ~alts (Topo.universe sc.Gen.topo)
              ~rsws_by_dc:sc.Gen.layout.Gen.rsws_by_dc
              ~ebbs:sc.Gen.layout.Gen.ebbs d)
          task.Task.demands)
  in
  ignore
    (span tr "traffic.calibrate" (fun () ->
         Matrix.calibration_factor sc.Gen.topo
           (List.map (fun c -> (c, 1.0)) compiled)
           ~target_util:0.5));
  ignore (span tr "task.deps" (fun () -> Task.relower task));
  let remainder plan i share =
    let executed, scales = replan_input task plan i share in
    ignore
      (span tr "klotski.remainder" (fun () ->
           Klotski.remainder_task (Task.scale_demands task scales) ~executed))
  in
  let replans, states =
    match (w.op, r.plan) with
    | Check, _ | _, None ->
        let o = Compact.origin task.Task.actions in
        ( [],
          List.filter_map
            (fun a ->
              if task.Task.counts.(a) > 0 then Some (Compact.succ o a) else None)
            (List.init (Array.length task.Task.counts) Fun.id) )
    | Replan, Some plan ->
        List.iteri (remainder plan) replan_points;
        (r.replans, Plan.states task plan)
    | Plan, Some plan ->
        remainder plan 0 0.5;
        let executed, demand_scales = replan_input task plan 0 0.5 in
        let res, _, _ =
          span tr "klotski.replan" (fun () ->
              Klotski.replan ~config task ~executed ~demand_scales)
        in
        (match res.Planner.outcome with
        | Planner.Found _ -> ()
        | _ -> fail "probe replan: no plan");
        ([ res.Planner.stats ], Plan.states task plan)
  in
  (match w.op with
  | Check -> ()
  | Plan | Replan ->
      ignore
        (span tr "constraint.evaluate" (fun () ->
             Constraint.evaluate_current (Constraint.create task))));
  let ck = Constraint.create task in
  let check_us =
    Array.of_list
      (List.map
         (fun v ->
           let t0 = now () in
           ignore (span tr "constraint.check" (fun () -> Constraint.check ck v));
           (now () -. t0) *. 1e6)
         states)
  in
  { check_us; replans }

(* ------------------------------------------------------------------ *)
(* Metrics *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }
let median xs = Kutil.Stats.median (Array.of_list xs)

(* [e2e_s] is the mean pass, the inverse of the closed loop's throughput.
   The host runs the planner in fast and slow streaks seconds long; a
   run's median jumps between the two as their shares cross one half,
   while the mean follows the shares smoothly, so runs agree better.
   [setup_s] is the median set-up.  Peak RSS is the first pass's: a
   fresh process running the user operation once.  Later passes reuse a
   heap the first one grew, and their high-water mark creeps up with the
   number of passes. *)
let end_to_end_metrics first passes =
  let mean xs = Kutil.Stats.mean (Array.of_list xs) in
  [
    m "e2e_s" "s" (mean (List.map (fun r -> r.pass_s) passes));
    m "setup_s" "s" (median (List.map (fun r -> r.setup_s) passes));
    m "peak_rss_mb" "MiB" first.peak_rss_mib;
  ]

(* Per-layer metrics from the spans of one traced pass and of the probes
   that followed it.  A layer the pass calls is timed in the pass, any
   other layer in the probes; one neither reaches reads 0.  Memory is the
   [first] pass's, as for peak RSS. *)
let per_layer_metrics (r : result) (p : probe) ~first ~pass_spans
    ~probe_spans ~overhead =
  let sum name f spans =
    List.fold_left
      (fun acc s -> if String.equal s.Span.name name then acc +. f s else acc)
      0.0 spans
  in
  let spans_of name =
    if List.exists (fun s -> String.equal s.Span.name name) pass_spans then
      pass_spans
    else probe_spans
  in
  let secs name = sum name Span.duration (spans_of name) in
  let mwords name = sum name (fun s -> s.Span.words) (spans_of name) /. 1e6 in
  let root = List.find (fun s -> String.equal s.Span.name "pass") pass_spans in
  let count x = float_of_int x in
  let stat f = match r.stats with Some s -> f s | None -> 0.0 in
  let search = secs "planner.search" in
  let check_s = stat (fun s -> s.Planner.check_seconds) in
  let checks = stat (fun s -> count s.Planner.sat_checks) in
  let hits = stat (fun s -> count s.Planner.cache_hits) in
  let universe_bytes =
    List.fold_left
      (fun acc (_, b) -> acc + b)
      0
      (Universe.footprint (Topo.universe r.scenario.Gen.topo))
  in
  let replan_sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 p.replans in
  [
    m "npd.parse_s" "s" (secs "npd.parse");
    m "topology.build_s" "s" (secs "topology.build");
    m "topology.alloc_mw" "Mwords" (mwords "topology.build");
    m "topology.universe_mb" "MiB" (float_of_int universe_bytes /. 1048576.0);
    m "blocks.organize_s" "s" (secs "blocks.organize");
    m "traffic.routes_s" "s" (secs "traffic.routes");
    m "traffic.routes_alloc_mw" "Mwords" (mwords "traffic.routes");
    m "traffic.calibrate_s" "s" (secs "traffic.calibrate");
    m "task.build_s" "s" (secs "task.build");
    m "task.deps_s" "s" (secs "task.deps");
    m "task.rss_mb" "MiB" first.task_rss_mib;
    m "planner.search_s" "s" search;
    m "sat_engine.check_s" "s" check_s;
    m "planner.self_s" "s" (search -. check_s);
    m "planner.expanded" "count" (stat (fun s -> count s.Planner.expanded));
    m "planner.generated" "count" (stat (fun s -> count s.Planner.generated));
    m "sat_engine.checks" "count" checks;
    m "cache.hits" "count" hits;
    m "cache.hit_ratio" "ratio"
      (if hits +. checks > 0.0 then hits /. (hits +. checks) else 0.0);
    m "constraint.check_p50_us" "us" (Kutil.Stats.percentile p.check_us 50.0);
    m "constraint.check_p90_us" "us" (Kutil.Stats.percentile p.check_us 90.0);
    m "constraint.check_n" "count" (count (Array.length p.check_us));
    m "constraint.evaluate_s" "s" (secs "constraint.evaluate");
    m "planner.alloc_mw" "Mwords" (mwords "planner.search");
    m "plan.validate_s" "s" (secs "plan.validate");
    m "npd_export.s" "s" (secs "npd_export");
    m "plan.cost" "phases"
      (Option.value (List.assoc_opt "plan_cost" r.pins) ~default:0.0);
    m "klotski.remainder_s" "s" (secs "klotski.remainder");
    m "klotski.replan_search_s" "s" (replan_sum (fun s -> s.Planner.elapsed));
    m "klotski.replans" "count" (count (List.length p.replans));
    m "klotski.replan_checks" "count"
      (replan_sum (fun s -> count s.Planner.sat_checks));
    m "trace.pass_s" "s" (Span.duration root);
    m "unattributed_s" "s" (Span.self pass_spans root);
    m "trace.overhead_s" "s" overhead;
  ]

(* ------------------------------------------------------------------ *)
(* Runs *)

let npd_text w = Npd_printer.to_string (Npd_convert.of_params w.kind (w.params ()))

type run = {
  attempted : int;
  failed : int;
  errors : string list;
  metrics : metric list;
}

(* Passes run back to back, each from a compacted heap, until the next
   one would end past [seconds]; at least two run, so counts can be
   compared.  Every pass is timed: each CLI invocation pays a cold
   process, so the first pass is as real as the rest.  It is also the
   reference: every later pass's pinned counts must equal its counts,
   except that a traced pass's words are not compared (spans allocate).
   [traced i] says whether pass [i] records spans. *)
let closed_loop tr w ~seed ~seconds ~traced text =
  let attempted = ref 0 and failed = ref 0 and errors = ref [] in
  let failure i msg =
    incr failed;
    errors := Printf.sprintf "pass %d: %s" i msg :: !errors
  in
  let reference = ref None in
  let one i =
    Gc.compact ();
    let on = traced i in
    tr.Span.on <- on;
    tr.Span.pass <- i;
    let r =
      try Ok (run_pass tr w ~seed text)
      with Failed e -> Error e
    in
    tr.Span.on <- false;
    match r with
    | Error e ->
        incr attempted;
        failure i e;
        None
    | Ok r ->
        attempted := !attempted + r.ops;
        Printf.printf "# pass %d%s: %.6f s, setup %.6f s\n%!" i
          (if on then " (traced)" else "")
          r.pass_s r.setup_s;
        let show pins =
          String.concat ", "
            (List.map (fun (k, v) -> Printf.sprintf "%s %.17g" k v) pins)
        in
        (match !reference with
        | None ->
            reference := Some r.pins;
            Printf.printf "# pinned: %s\n%!" (show r.pins)
        | Some pins ->
            let untraced = if on then List.remove_assoc "words" else Fun.id in
            let same (k, a) (k', b) = String.equal k k' && Float.equal a b in
            if not (List.equal same (untraced pins) (untraced r.pins)) then
              failure i
                (Printf.sprintf "counts %s differ from the first pass's %s"
                   (show r.pins) (show pins)));
        Some (i, r)
  in
  let t0 = now () in
  let rec loop i last acc =
    if i >= 2 && now () -. t0 +. last > seconds then List.rev acc
    else
      match one i with
      | Some (_, r as x) -> loop (i + 1) r.pass_s (x :: acc)
      | None -> loop (i + 1) last acc
  in
  let passes = loop 0 0.0 [] in
  (!attempted, !failed, List.rev !errors, passes)

let untraced_run w ~seed ~seconds text =
  let attempted, failed, errors, passes =
    closed_loop (Span.recorder ()) w ~seed ~seconds ~traced:(fun _ -> false) text
  in
  let metrics =
    match passes with
    | (0, first) :: _ -> end_to_end_metrics first (List.map snd passes)
    | _ -> []
  in
  { attempted; failed; errors; metrics }

let write_trace path spans =
  (try Sys.mkdir (Filename.dirname path) 0o755 with Sys_error _ -> ());
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      output_string oc (Span.to_json s))
    spans;
  output_string oc "\n]\n";
  close_out oc

(* Untraced and traced passes alternate; the per-layer numbers come from
   the traced pass of median duration, and its probes. *)
let traced_run w ~seed ~seconds ~trace_out text =
  let tr = Span.recorder () in
  let attempted, failed, errors, passes =
    closed_loop tr w ~seed ~seconds ~traced:(fun i -> i mod 2 = 1) text
  in
  let traced, untraced = List.partition (fun (i, _) -> i mod 2 = 1) passes in
  match (traced, untraced) with
  | [], _ | _, [] ->
      {
        attempted;
        failed = failed + 1;
        errors = errors @ [ "too few passes" ];
        metrics = [];
      }
  | _ ->
      let sorted =
        List.sort (fun (_, a) (_, b) -> Float.compare a.pass_s b.pass_s) traced
      in
      let i, r = List.nth sorted (List.length sorted / 2) in
      let probe_id = -1 in
      tr.Span.on <- true;
      tr.Span.pass <- probe_id;
      let probe =
        try Ok (span tr "probe" (fun () -> probes tr w r)) with Failed e -> Error e
      in
      tr.Span.on <- false;
      write_trace trace_out (List.rev tr.Span.all);
      let overhead =
        median (List.map (fun (_, r) -> r.pass_s) traced)
        -. median (List.map (fun (_, r) -> r.pass_s) untraced)
      in
      match probe with
      | Error e ->
          {
            attempted = attempted + 1;
            failed = failed + 1;
            errors = errors @ [ "probe: " ^ e ];
            metrics = [];
          }
      | Ok p ->
          let metrics =
            per_layer_metrics r p ~first:(snd (List.hd passes))
              ~pass_spans:(Span.of_pass tr i)
              ~probe_spans:(Span.of_pass tr probe_id) ~overhead
          in
          { attempted; failed; errors; metrics }

(* ------------------------------------------------------------------ *)
(* Output *)

let json_of_run ~correct run =
  let metric x =
    Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} x.name x.value x.unit_
  in
  Printf.sprintf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    run.attempted run.failed
    (String.concat ", " (List.map metric run.metrics))

let print_table run =
  List.iter
    (fun x -> Printf.printf "  %-26s %16.6f %s\n" x.name x.value x.unit_)
    run.metrics

let main () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 in
  let trace = ref 0 and self_test = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N demand seed (Task.of_scenario ~seed)");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--self-test", Arg.Set self_test, " run every workload on tiny tiers");
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match
    List.find_opt (fun (w : workload) -> String.equal w.name !workload) workloads
  with
  | None ->
      Printf.eprintf "unknown workload %S\n" !workload;
      exit 2
  | Some w ->
      Printf.printf "# provenance: commit %s, nproc %d, ocaml %s\n"
        (Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"unknown")
        (Domain.recommended_domain_count ())
        Sys.ocaml_version;
      Printf.printf "# workload %s, seed %d, %.0f s, trace %d\n%!" w.name !seed
        !seconds !trace;
      let w = if !self_test then tiny w else w in
      let text = npd_text w in
      let run =
        if !trace = 0 then untraced_run w ~seed:!seed ~seconds:!seconds text
        else
          traced_run w ~seed:!seed ~seconds:!seconds
            ~trace_out:
              (Printf.sprintf "perfbench/out/trace-%s-%d.json" w.name !seed)
            text
      in
      List.iter (fun e -> Printf.printf "# FAILED %s\n" e) run.errors;
      print_table run;
      let correct = Int.equal run.failed 0 && not (List.is_empty run.metrics) in
      print_endline (json_of_run ~correct run)

let () = main ()
