(* Tests for the universe/overlay topology split: the immutable shared
   Universe plus per-checker bitset overlays must be an invisible
   refactor — same plans, costs, verdicts and cache counters — while the
   new primitives (the wiring plane, XOR-style move_to, compact-state
   word lowering) behave exactly like the naive reference
   implementations they replace. *)

let cfg ~incremental =
  Planner.with_incremental incremental (Planner.with_budget (Some 60.0))

let random_params seed =
  let g = Kutil.Prng.create ~seed in
  {
    (Gen.params_a ()) with
    Gen.label = Printf.sprintf "ovl%d" seed;
    dcs = 1 + Kutil.Prng.int g 2;
    rsws_per_pod = 1 + Kutil.Prng.int g 2;
    v1_grids = 1 + Kutil.Prng.int g 3;
    v2_grids = 2 + Kutil.Prng.int g 3;
    mesh_variants = 1 + Kutil.Prng.int g 2;
    ssw_port_headroom = 1 + Kutil.Prng.int g 2;
  }

let random_task seed =
  Task.of_scenario ~seed (Gen.build Gen.Hgrid_v1_to_v2 (random_params seed))

let outcome_fingerprint = function
  | Planner.Found p ->
      Printf.sprintf "found %.9f [%s]" p.Plan.cost
        (String.concat "," (List.map string_of_int p.Plan.blocks))
  | Planner.Infeasible -> "infeasible"
  | Planner.Timeout (Some p) -> Printf.sprintf "timeout %.9f" p.Plan.cost
  | Planner.Timeout None -> "timeout"
  | Planner.Unsupported why -> "unsupported: " ^ why

let planners : (string * (Planner.config -> Task.t -> Planner.result)) list =
  [
    ("astar", fun config task -> Astar.plan ~config task);
    ("dp", fun config task -> Dp.plan ~config task);
    ("exhaustive", fun config task -> Exhaustive.plan ~config task);
    ("greedy", fun config task -> Greedy.plan ~config task);
  ]

(* Everything observable about an overlay, as one comparable string. *)
let overlay_fingerprint t =
  let buf = Buffer.create 256 in
  for i = 0 to Topo.n_switches t - 1 do
    Buffer.add_char buf (if Topo.switch_active t i then 'S' else 's');
    Buffer.add_string buf (string_of_int (Topo.usable_degree t i));
    Buffer.add_char buf ';'
  done;
  for j = 0 to Topo.n_circuits t - 1 do
    Buffer.add_char buf (if Topo.circuit_active t j then 'C' else 'c');
    Buffer.add_char buf (if Topo.usable t j then 'U' else 'u');
    if Topo.circuit_rewired t j then begin
      Buffer.add_char buf '@';
      Buffer.add_string buf (string_of_int (Topo.endpoint_hi t j))
    end
  done;
  Printf.sprintf "%s|pv=%d|asw=%d|aci=%d|rw=%d" (Buffer.contents buf)
    (Topo.port_violation_count t)
    (Topo.active_switch_count t)
    (Topo.active_circuit_count t)
    (Topo.rewired_count t)

(* Naive reference for [Constraint.move_to]: rebuild the overlay for a
   compact state from scratch by replaying the canonical block prefix of
   every action type on a fresh copy. *)
let reference_topo (task : Task.t) (v : Compact.t) =
  let topo = Topo.copy task.Task.topo in
  Array.iteri
    (fun a blocks ->
      for j = 0 to v.(a) - 1 do
        let b = task.Task.blocks.(blocks.(j)) in
        (match Action.applies b.Blocks.action with
        | Action.Set_activity active ->
            Array.iter
              (fun s -> Topo.set_switch_active topo s active)
              b.Blocks.switches;
            Array.iter
              (fun c -> Topo.set_circuit_active topo c active)
              b.Blocks.circuits
        | Action.Set_wiring target ->
            Array.iter
              (fun c -> Topo.set_circuit_hi topo c target)
              b.Blocks.circuits)
      done)
    task.Task.blocks_by_type;
  topo

(* ------------------------------------------------------------------ *)
(* Physical sharing: every checker overlay points at the task's
   universe — Constraint.create copies no static arrays. *)

let test_universe_shared () =
  let task = random_task 1 in
  let ck1 = Constraint.create task and ck2 = Constraint.create task in
  Alcotest.(check bool) "checker 1 shares the task universe" true
    (Topo.universe (Constraint.overlay ck1) == Task.universe task);
  Alcotest.(check bool) "checker 2 shares the task universe" true
    (Topo.universe (Constraint.overlay ck2) == Task.universe task);
  Alcotest.(check bool) "Topo.copy shares the universe" true
    (Topo.universe (Topo.copy task.Task.topo) == Task.universe task);
  (* The packed arrays are shared through the universe; the array
     accessors return defensive copies, so writing through them must not
     leak into any checker. *)
  let view = Topo.switches (Constraint.overlay ck1) in
  let dummy = Switch.make ~id:(-1) ~name:"?" ~role:Switch.RSW ~max_ports:0 () in
  Array.fill view 0 (Array.length view) dummy;
  Alcotest.(check bool) "switch view is a defensive copy" true
    ((Topo.switch (Constraint.overlay ck1) 0).Switch.id = 0)

(* ------------------------------------------------------------------ *)
(* The wiring plane on its own: a rewired circuit reports
   [circuit_rewired] and its new [endpoint_hi], and un-rewiring with
   [set_circuit_hi None] returns the overlay to as-built. *)

let check_rewire_round_trip () =
  let sc = Gen.scenario_of_label "OCS-LITE" in
  let topo = Topo.copy sc.Gen.topo in
  let _, g0, hi0 = List.hd sc.Gen.rewire_groups in
  let fp0 = overlay_fingerprint topo in
  List.iter (fun j -> Topo.set_circuit_hi topo j (Some hi0)) g0;
  List.iter
    (fun j ->
      Alcotest.(check bool) "circuit marked rewired" true
        (Topo.circuit_rewired topo j);
      Alcotest.(check int) "endpoint reports the new wiring" hi0
        (Topo.endpoint_hi topo j))
    g0;
  List.iter (fun j -> Topo.set_circuit_hi topo j None) g0;
  Alcotest.(check string) "set_circuit_hi None returns to as-built" fp0
    (overlay_fingerprint topo);
  Alcotest.(check int) "rewired_count back to zero" 0 (Topo.rewired_count topo)

(* ------------------------------------------------------------------ *)
(* move_to vs naive replay: after any sequence of jumps across the
   compact lattice — forward steps and random rewinds — the checker's
   overlay must equal the from-scratch replay of the target state.
   The OCS task exercises the wiring plane through the same path, after
   a direct round trip through it. *)

let test_move_to_matches_replay () =
  check_rewire_round_trip ();
  List.iter
    (fun (seed, task) ->
      let ck = Constraint.create task in
      let counts = task.Task.counts in
      let n_types = Array.length counts in
      let g = Kutil.Prng.create ~seed:(seed * 31) in
      let origin = Compact.origin task.Task.actions in
      let visited = ref [| origin |] in
      let cur = ref origin in
      for _ = 1 to 50 do
        let next =
          let jump = Kutil.Prng.int g 4 = 0 in
          let avail = ref [] in
          for a = n_types - 1 downto 0 do
            if !cur.(a) < counts.(a) then avail := a :: !avail
          done;
          if jump || !avail = [] then
            !visited.(Kutil.Prng.int g (Array.length !visited))
          else
            let picks = Array.of_list !avail in
            Compact.succ !cur picks.(Kutil.Prng.int g (Array.length picks))
        in
        Constraint.move_to ck next;
        cur := next;
        visited := Array.append !visited [| next |];
        Alcotest.(check string) "overlay equals replayed reference"
          (overlay_fingerprint (reference_topo task next))
          (overlay_fingerprint (Constraint.overlay ck))
      done)
    [
      (2, random_task 2);
      (6, random_task 6);
      (11, Task.of_scenario (Gen.scenario_of_label "OCS-LITE"));
    ]

(* ------------------------------------------------------------------ *)
(* Compact-state word lowering: the packed words set exactly the bits of
   the canonical applied-block prefix, distinct states get distinct
   keys (cache-key soundness), and blit_state_words matches state_words
   without touching words past the count. *)

let check_state_words (task : Task.t) =
  let counts = task.Task.counts in
  let n_types = Array.length counts in
  let n_blocks = Array.length task.Task.blocks in
  let expected_words = max 1 ((n_blocks + 62) / 63) in
  let lattice =
    Array.fold_left (fun acc c -> acc * (c + 1)) 1 counts
  in
  Alcotest.(check bool) "lattice small enough to enumerate" true
    (lattice <= 200_000);
  let seen = Hashtbl.create (2 * lattice) in
  let v = Array.make n_types 0 in
  let applied = Array.make n_blocks false in
  let rec go i =
    if i = n_types then begin
      let words = Task.state_words task v in
      if Array.length words <> expected_words then
        Alcotest.failf "state_words length %d, expected %d"
          (Array.length words) expected_words;
      Array.fill applied 0 n_blocks false;
      Array.iteri
        (fun a blocks ->
          for j = 0 to v.(a) - 1 do
            applied.(blocks.(j)) <- true
          done)
        task.Task.blocks_by_type;
      for b = 0 to n_blocks - 1 do
        let bit = words.(b / 63) land (1 lsl (b mod 63)) <> 0 in
        if bit <> applied.(b) then
          Alcotest.failf "bit %d is %b, expected %b" b bit applied.(b)
      done;
      let key =
        String.concat "," (Array.to_list (Array.map string_of_int words))
      in
      if Hashtbl.mem seen key then
        Alcotest.failf "two compact states lower to one key %s" key;
      Hashtbl.add seen key ();
      let into = Array.make (expected_words + 1) min_int in
      Task.blit_state_words task v ~into;
      for w = 0 to expected_words - 1 do
        if into.(w) <> words.(w) then Alcotest.failf "blit word %d differs" w
      done;
      if into.(expected_words) <> min_int then
        Alcotest.fail "blit wrote past the word count"
    end
    else
      for k = 0 to counts.(i) do
        v.(i) <- k;
        go (i + 1)
      done
  in
  go 0

let test_state_words () =
  check_state_words (random_task 1);
  check_state_words (Task.of_scenario (Gen.scenario_of_label "A"))

(* ------------------------------------------------------------------ *)
(* Cache counters are part of the pinned behaviour: the
   full-replay and incremental configurations must run the same checks
   and hit the cache the same number of times, for every planner, in
   addition to producing identical outcomes. *)

let check_counters label task =
  List.iter
    (fun (name, plan) ->
      let full = plan (cfg ~incremental:false) task in
      let inc = plan (cfg ~incremental:true) task in
      Alcotest.(check string)
        (Printf.sprintf "%s: %s outcome" label name)
        (outcome_fingerprint full.Planner.outcome)
        (outcome_fingerprint inc.Planner.outcome);
      Alcotest.(check int)
        (Printf.sprintf "%s: %s sat_checks" label name)
        full.Planner.stats.Planner.sat_checks
        inc.Planner.stats.Planner.sat_checks;
      Alcotest.(check int)
        (Printf.sprintf "%s: %s cache_hits" label name)
        full.Planner.stats.Planner.cache_hits
        inc.Planner.stats.Planner.cache_hits)
    planners

let test_counters_random () =
  List.iter
    (fun seed -> check_counters (Printf.sprintf "seed %d" seed)
        (random_task seed))
    [ 2; 7 ]

let test_counters_label_a () =
  check_counters "topology A" (Task.of_scenario (Gen.scenario_of_label "A"))

let test_counters_ocs () =
  check_counters "topology OCS-LITE"
    (Task.of_scenario (Gen.scenario_of_label "OCS-LITE"))

let suite =
  ( "overlay",
    [
      Alcotest.test_case "universe physically shared" `Quick
        test_universe_shared;
      Alcotest.test_case "move_to matches naive replay" `Quick
        test_move_to_matches_replay;
      Alcotest.test_case "state-word lowering sound" `Quick test_state_words;
      Alcotest.test_case "cache counters pinned (random)" `Slow
        test_counters_random;
      Alcotest.test_case "cache counters pinned (topology A)" `Quick
        test_counters_label_a;
      Alcotest.test_case "cache counters pinned (topology OCS-LITE)" `Quick
        test_counters_ocs;
    ] )
