(* Tests for the satisfiability checker and the ESC cache (§4.2). *)

let task_a () = Task.of_scenario (Gen.scenario_of_label "A")

(* The name of the constraint the checker's current state breaks. *)
let broken ?last_block ck =
  Constraint.verdict_name (Constraint.verdict ?last_block ck)

let test_origin_satisfiable () =
  let task = task_a () in
  let ck = Constraint.create task in
  let n = Action.Set.cardinal task.Task.actions in
  Alcotest.(check bool) "origin ok" true (Constraint.check ck (Kutil.Vec_key.zeros n));
  Alcotest.(check int) "one check" 1 (Constraint.checks_performed ck);
  Alcotest.(check string) "origin admitted" "admitted" (broken ck);
  Alcotest.(check int) "a verdict is not a check" 1
    (Constraint.checks_performed ck);
  (* The hottest circuit runs at 0.52. *)
  let tight = Constraint.create (Task.with_params ~theta:0.5 task) in
  Alcotest.(check string) "origin at theta 0.5" "theta" (broken tight)

let test_move_to_matches_fresh () =
  (* Jumping around the lattice must land on the same topology state a
     fresh checker reaches directly. *)
  let task = task_a () in
  let jumper = Constraint.create task in
  let states =
    [ [| 1; 0; 0; 0 |]; [| 1; 1; 2; 1 |]; [| 0; 0; 1; 0 |]; [| 2; 1; 3; 2 |] ]
  in
  List.iter
    (fun v ->
      let via_jump = Constraint.check jumper v in
      let fresh = Constraint.create task in
      let direct = Constraint.check fresh v in
      Alcotest.(check bool)
        (Kutil.Vec_key.to_string v ^ " agrees")
        direct via_jump)
    states

let test_theta_monotone () =
  (* A state satisfiable at theta stays satisfiable at any larger theta. *)
  let task = task_a () in
  (* Probe a diagonal of in-bounds states of the compact lattice. *)
  let counts = task.Task.counts in
  let states =
    List.init 4 (fun step ->
        Array.map (fun c -> min c step) counts)
  in
  List.iter
    (fun v ->
      let at theta =
        Constraint.check (Constraint.create (Task.with_params ~theta task)) v
      in
      List.iter
        (fun (lo, hi) ->
          if at lo then
            Alcotest.(check bool)
              (Printf.sprintf "%s: theta %.2f -> %.2f" (Kutil.Vec_key.to_string v)
                 lo hi)
              true (at hi))
        [ (0.55, 0.75); (0.75, 0.95) ])
    states

let test_port_violation_detected () =
  (* Undraining beyond the SSW headroom without draining must fail. *)
  let task = task_a () in
  let ck = Constraint.create task in
  let n = Action.Set.cardinal task.Task.actions in
  let v = Kutil.Vec_key.zeros n in
  (* Fill every undrain type to its maximum with zero drains. *)
  Array.iteri
    (fun a count ->
      let action = Action.Set.get task.Task.actions a in
      if action.Action.op = Action.Undrain then v.(a) <- count)
    task.Task.counts;
  Alcotest.(check bool) "all-undrain state violates ports" false
    (Constraint.check ck v);
  Alcotest.(check string) "the port bound breaks" "port bound" (broken ck);
  (* Every drain done and nothing undrained: the old fabric is gone and
     the new one is dark. *)
  Array.iteri
    (fun a count ->
      let action = Action.Set.get task.Task.actions a in
      v.(a) <- (if action.Action.op = Action.Drain then count else 0))
    task.Task.counts;
  Alcotest.(check bool) "all-drain state strands volume" false
    (Constraint.check ck v);
  Alcotest.(check string) "stuck volume" "stuck volume" (broken ck)

let test_funneling_tightens () =
  let sc = Gen.scenario_of_label "A" in
  (* theta 0.9 so a single grid drain is plainly safe (util ~0.78). *)
  let plain = Task.of_scenario ~theta:0.9 sc in
  let funneled = Task.of_scenario ~theta:0.9 ~funneling:0.8 sc in
  (* Find a drain state accepted without funneling. *)
  let ck_plain = Constraint.create plain in
  let ck_fun = Constraint.create funneled in
  let n = Action.Set.cardinal plain.Task.actions in
  let drain_type =
    let found = ref (-1) in
    Array.iteri
      (fun a _ ->
        if
          !found < 0
          && (Action.Set.get plain.Task.actions a).Action.op = Action.Drain
        then found := a)
      plain.Task.counts;
    !found
  in
  let v = Kutil.Vec_key.zeros n in
  v.(drain_type) <- 1;
  let block = plain.Task.blocks_by_type.(drain_type).(0) in
  let ok_plain = Constraint.check ~last_block:block ck_plain v in
  let ok_funneled = Constraint.check ~last_block:block ck_fun v in
  Alcotest.(check bool) "plain accepts the single drain" true ok_plain;
  Alcotest.(check bool) "funneling margin can only reject more" true
    ((not ok_funneled) || ok_plain);
  Alcotest.(check string) "the funneled checker names the margin" "funneling"
    (broken ~last_block:block ck_fun)

let test_check_plan_errors () =
  let task = task_a () in
  let n = Task.total_blocks task in
  (match Constraint.check_plan task [] with
  | Error msg ->
      Alcotest.(check bool) "length mismatch reported" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "empty plan accepted");
  let dup = List.init n (fun _ -> 0) in
  (match Constraint.check_plan task dup with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate blocks accepted");
  (match Constraint.check_plan task [ -1 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad id accepted");
  (* Drains first: one drained grid already loads the rest to about
     0.78, over the default θ of 0.75. *)
  let drains_first =
    List.stable_sort
      (fun a b ->
        let undrain b =
          (Action.Set.get task.Task.actions (Task.block_type task b)).Action.op
          = Action.Undrain
        in
        Bool.compare (undrain a) (undrain b))
      (List.init n Fun.id)
  in
  match Constraint.check_plan task drains_first with
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%S names the constraint" msg)
        true
        (String.ends_with ~suffix:": theta" msg)
  | Ok _ -> Alcotest.fail "drains-first plan accepted"

let test_check_plan_cost () =
  let task = task_a () in
  match Astar.plan task with
  | { Planner.outcome = Planner.Found p; _ } -> (
      match Constraint.check_plan task p.Plan.blocks with
      | Ok cost ->
          Alcotest.check (Alcotest.float 1e-9) "replay cost matches" p.Plan.cost
            cost
      | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "A* failed on A"

let test_raw_apply_unapply () =
  let task = task_a () in
  let ck = Constraint.create task in
  let before = Constraint.current_ok ck in
  Constraint.apply_block ck 0;
  Constraint.unapply_block ck 0;
  Alcotest.(check bool) "apply/unapply is identity" before
    (Constraint.current_ok ck)

let test_related_circuits () =
  (* The funneling neighborhood of every block: sorted, deduplicated,
     incident to a neighbor of the block, and never incident to the block
     itself (those circuits are down with it). *)
  let task = task_a () in
  let topo = task.Task.topo in
  let ck = Constraint.create task in
  Array.iteri
    (fun bid (b : Blocks.t) ->
      let circuits = Constraint.related_circuits ck bid in
      Alcotest.(check bool)
        (Printf.sprintf "block %d: cached array is stable" bid)
        true
        (circuits == Constraint.related_circuits ck bid);
      for i = 1 to Array.length circuits - 1 do
        if circuits.(i - 1) >= circuits.(i) then
          Alcotest.fail
            (Printf.sprintf "block %d: not strictly sorted at %d" bid i)
      done;
      let in_block = Hashtbl.create 16 in
      Array.iter (fun s -> Hashtbl.replace in_block s ()) b.Blocks.switches;
      let neighbor = Hashtbl.create 64 in
      let note s j =
        let o = Circuit.other_end (Topo.circuit topo j) s in
        if not (Hashtbl.mem in_block o) then Hashtbl.replace neighbor o ()
      in
      Array.iter
        (fun s ->
          Array.iter (note s) (Universe.up_circuits (Topo.universe topo) s);
          Array.iter (note s) (Universe.down_circuits (Topo.universe topo) s))
        b.Blocks.switches;
      Array.iter
        (fun j ->
          let c = Topo.circuit topo j in
          Hashtbl.replace neighbor c.Circuit.lo ();
          Hashtbl.replace neighbor c.Circuit.hi ())
        b.Blocks.circuits;
      Array.iter
        (fun j ->
          let c = Topo.circuit topo j in
          if Hashtbl.mem in_block c.Circuit.lo || Hashtbl.mem in_block c.Circuit.hi
          then
            Alcotest.fail
              (Printf.sprintf "block %d: circuit %d touches the block" bid j);
          if
            not
              (Hashtbl.mem neighbor c.Circuit.lo
              || Hashtbl.mem neighbor c.Circuit.hi)
          then
            Alcotest.fail
              (Printf.sprintf "block %d: circuit %d not in the neighborhood"
                 bid j))
        circuits;
      (* The block's own circuits never appear. *)
      Array.iter
        (fun j ->
          if Array.exists (( = ) j) circuits then
            Alcotest.fail
              (Printf.sprintf "block %d: own circuit %d listed" bid j))
        b.Blocks.circuits)
    task.Task.blocks

let test_min_residual () =
  let task = task_a () in
  let ck = Constraint.create task in
  let r = Constraint.current_min_residual ck in
  (* theta 0.75, calibrated hottest 0.52: residual = 0.75 - 0.52. *)
  Alcotest.check (Alcotest.float 1e-6) "origin residual" 0.23 r

let test_cache_behaviour () =
  let task = task_a () in
  let ck = Constraint.create task in
  let cache = Cache.create task in
  let n = Action.Set.cardinal task.Task.actions in
  let v = Kutil.Vec_key.zeros n in
  let r1 = Cache.check cache ck v in
  let r2 = Cache.check cache ck v in
  Alcotest.(check bool) "results agree" r1 r2;
  Alcotest.(check int) "one miss" 1 (Cache.misses cache);
  Alcotest.(check int) "one hit" 1 (Cache.hits cache);
  Alcotest.(check int) "one entry" 1 (Cache.size cache);
  Alcotest.(check int) "one full check" 1 (Constraint.checks_performed ck)

let test_cache_disabled () =
  let task = task_a () in
  let ck = Constraint.create task in
  let cache = Cache.create ~enabled:false task in
  let v = Kutil.Vec_key.zeros (Action.Set.cardinal task.Task.actions) in
  ignore (Cache.check cache ck v);
  ignore (Cache.check cache ck v);
  Alcotest.(check int) "no hits" 0 (Cache.hits cache);
  (* Disabled checks are bypasses, not misses: the "w/o ESC" ablation must
     not report a bogus miss count / hit-rate denominator. *)
  Alcotest.(check int) "no misses" 0 (Cache.misses cache);
  Alcotest.(check int) "two bypasses" 2 (Cache.bypassed cache);
  Alcotest.(check int) "two full checks" 2 (Constraint.checks_performed ck)

let test_cache_mutation_safe () =
  (* The cache must copy its keys: mutating the probe vector afterwards
     cannot corrupt the table. *)
  let task = task_a () in
  let ck = Constraint.create task in
  let cache = Cache.create task in
  let n = Action.Set.cardinal task.Task.actions in
  let v = Kutil.Vec_key.zeros n in
  let r0 = Cache.check cache ck v in
  v.(0) <- 1;
  ignore (Cache.check cache ck v);
  v.(0) <- 0;
  Alcotest.(check bool) "origin still cached correctly" r0
    (Cache.check cache ck v);
  Alcotest.(check int) "two distinct entries" 2 (Cache.size cache)

let test_funneling_cache_keys () =
  (* With funneling on, the same V under different last types must be
     cached separately. *)
  let task = Task.of_scenario ~funneling:0.3 (Gen.scenario_of_label "A") in
  let ck = Constraint.create task in
  let cache = Cache.create task in
  let n = Action.Set.cardinal task.Task.actions in
  let v = Kutil.Vec_key.zeros n in
  ignore (Cache.check cache ck ~last_type:0 v);
  ignore (Cache.check cache ck ~last_type:1 v);
  Alcotest.(check int) "separate entries per last type" 2 (Cache.size cache)

let suite =
  ( "constraint",
    [
      Alcotest.test_case "origin satisfiable" `Quick test_origin_satisfiable;
      Alcotest.test_case "move_to matches fresh replay" `Quick
        test_move_to_matches_fresh;
      Alcotest.test_case "theta monotonicity" `Quick test_theta_monotone;
      Alcotest.test_case "port violations detected" `Quick
        test_port_violation_detected;
      Alcotest.test_case "funneling tightens" `Quick test_funneling_tightens;
      Alcotest.test_case "check_plan input validation" `Quick
        test_check_plan_errors;
      Alcotest.test_case "check_plan cost agrees" `Quick test_check_plan_cost;
      Alcotest.test_case "raw apply/unapply" `Quick test_raw_apply_unapply;
      Alcotest.test_case "related_circuits neighborhoods" `Quick
        test_related_circuits;
      Alcotest.test_case "min residual" `Quick test_min_residual;
      Alcotest.test_case "cache hit/miss accounting" `Quick test_cache_behaviour;
      Alcotest.test_case "cache disabled (w/o ESC)" `Quick test_cache_disabled;
      Alcotest.test_case "cache key copying" `Quick test_cache_mutation_safe;
      Alcotest.test_case "funneling-aware cache keys" `Quick
        test_funneling_cache_keys;
    ] )
