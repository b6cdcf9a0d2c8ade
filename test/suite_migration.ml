(* Tests for the migration formalization: actions, operation blocks, the
   compact representation, the cost model, and the task structure. *)

let feq = Alcotest.float 1e-9

(* ---------------------------------------------------------------- *)
(* Action *)

let test_action_strings () =
  Alcotest.(check string) "drain hgrid" "drain HGRID-v1/mesh0"
    (Action.to_string (Action.make Action.Drain (Action.Hgrid_layer (1, 0))));
  Alcotest.(check string) "undrain ssw" "undrain SSW-g2"
    (Action.to_string
       (Action.make Action.Undrain (Action.Switch_layer (Switch.SSW, 2))));
  Alcotest.(check string) "circuit group" "drain circuits FAUU-EB"
    (Action.to_string
       (Action.make Action.Drain (Action.Circuit_group "FAUU-EB")));
  Alcotest.(check string) "rewire" "rewire(eb0-uplinks->36) circuits eb0-uplinks"
    (Action.to_string
       (Action.make
          (Action.Rewire { circuit_sel = "eb0-uplinks"; new_hi = 36 })
          (Action.Circuit_group "eb0-uplinks")))

let test_action_set () =
  let a = Action.make Action.Drain (Action.Hgrid_layer (1, 0)) in
  let b = Action.make Action.Undrain (Action.Hgrid_layer (2, 0)) in
  let set = Action.Set.of_list [ a; b; a; b; a ] in
  Alcotest.(check int) "deduplicated" 2 (Action.Set.cardinal set);
  Alcotest.(check int) "first index" 0 (Action.Set.index set a);
  Alcotest.(check int) "second index" 1 (Action.Set.index set b);
  Alcotest.(check string) "get inverts index" (Action.to_string b)
    (Action.to_string (Action.Set.get set 1));
  Alcotest.(check bool) "missing raises" true
    (match
       Action.Set.index set (Action.make Action.Drain (Action.Hgrid_layer (9, 9)))
     with
    | exception Not_found -> true
    | _ -> false)

let test_action_of_string () =
  Alcotest.(check bool) "drain" true (Action.of_string "drain" = Some Action.Drain);
  Alcotest.(check bool) "undrain" true
    (Action.of_string "undrain" = Some Action.Undrain);
  Alcotest.(check bool) "rewire" true
    (Action.of_string "rewire(eb0-uplinks->36)"
    = Some (Action.Rewire { circuit_sel = "eb0-uplinks"; new_hi = 36 }));
  (* The selector may itself contain "->": the last arrow wins. *)
  Alcotest.(check bool) "arrow in selector" true
    (Action.of_string "rewire(a->b->7)"
    = Some (Action.Rewire { circuit_sel = "a->b"; new_hi = 7 }));
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" s) true
        (Action.of_string s = None))
    [
      ""; "Drain"; "rewire"; "rewire()"; "rewire(x)"; "rewire(x->)";
      "rewire(x->y)"; "rewire(x->-3)"; "rewire(x->3";
      "drain "; "decommission";
    ]

(* Property: of_string inverts op_to_string over the whole alphabet,
   including rewire payloads with arbitrary printable selectors. *)
let prop_op_string_roundtrip =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (1, return Action.Drain);
          (1, return Action.Undrain);
          ( 3,
            map2
              (fun sel hi -> Action.Rewire { circuit_sel = sel; new_hi = hi })
              (string_size ~gen:printable (int_range 0 16))
              (int_bound 100_000) );
        ])
  in
  let arb =
    QCheck.make ~print:Action.op_to_string op_gen
  in
  QCheck.Test.make ~count:500 ~name:"of_string (op_to_string op) = Some op"
    arb
    (fun op -> Action.of_string (Action.op_to_string op) = Some op)

(* ---------------------------------------------------------------- *)
(* Blocks *)

let test_organize_partition () =
  List.iter
    (fun label ->
      let sc = Gen.scenario_of_label label in
      let blocks = Blocks.organize sc in
      (match Blocks.validate sc.Gen.topo blocks with
      | Ok () -> ()
      | Error e -> Alcotest.fail (label ^ ": " ^ e));
      (* Every operated switch appears in exactly one block. *)
      let block_switches =
        List.concat_map
          (fun (b : Blocks.t) -> Array.to_list b.Blocks.switches)
          blocks
      in
      Alcotest.(check (list int))
        (label ^ " switches covered")
        (List.sort compare (sc.Gen.drain_switches @ sc.Gen.undrain_switches))
        (List.sort compare block_switches))
    [ "A"; "B"; "E-DMAG"; "E-SSW" ]

let test_factor_scaling () =
  let sc = Gen.scenario_of_label "B" in
  let count f = List.length (Blocks.organize ~factor:f sc) in
  let base = count 1.0 in
  Alcotest.(check int) "2x doubles" (2 * base) (count 2.0);
  Alcotest.(check bool) "0.5x halves (or close)" true
    (count 0.5 <= (base / 2) + 2);
  Alcotest.check_raises "bad factor"
    (Invalid_argument "Blocks.organize: factor must be positive") (fun () ->
      ignore (Blocks.organize ~factor:0.0 sc))

(* A split past a group's size yields the group's members one by one,
   so at factor 1000 A's blocks are those at a factor equal to its
   largest group, and building them allocates a bounded amount per
   member rather than a slice per unit of factor (the uncapped split
   allocated about 78k words here, against 148 members).  A factor past
   the int range, or infinite, gives the same blocks; a NaN factor is
   refused. *)
let test_factor_capped () =
  let sc = Gen.scenario_of_label "A" in
  let words f =
    Gc.full_major ();
    let count () =
      let s = Gc.quick_stat () in
      Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words
    in
    let before = count () in
    let blocks = Blocks.organize ~factor:f sc in
    (blocks, count () -. before)
  in
  let base, base_words = words 1.0 in
  let largest =
    List.fold_left (fun m (b : Blocks.t) -> max m (Array.length b.Blocks.switches)) 0 base
  in
  let members =
    List.fold_left
      (fun m (b : Blocks.t) ->
        m + Array.length b.Blocks.switches + Array.length b.Blocks.circuits)
      0 base
  in
  let singles = Blocks.organize ~factor:(float_of_int largest) sc in
  let huge, huge_words = words 1000.0 in
  Alcotest.(check bool) "factor 1000 = factor largest group" true (huge = singles);
  Alcotest.(check bool)
    (Printf.sprintf "factor 1000 allocates %.0f words past factor 1 for %d members"
       (huge_words -. base_words) members)
    true
    (huge_words -. base_words <= float_of_int (64 * members));
  List.iter
    (fun f ->
      Alcotest.(check bool) (Printf.sprintf "factor %g" f) true
        (Blocks.organize ~factor:f sc = singles))
    [ 1e300; Float.infinity ];
  Alcotest.(check bool) "tiny factor merges everything" true
    (List.length (Blocks.organize ~factor:1e-300 sc)
    = List.length (Blocks.organize ~factor:(1.0 /. float_of_int (List.length base)) sc));
  Alcotest.check_raises "NaN factor"
    (Invalid_argument "Blocks.organize: factor must be positive") (fun () ->
      ignore (Blocks.organize ~factor:Float.nan sc))

let test_future_circuits_attached () =
  let sc = Gen.scenario_of_label "A" in
  let blocks = Blocks.organize sc in
  let owned = Hashtbl.create 64 in
  List.iter
    (fun (b : Blocks.t) ->
      Array.iter
        (fun c ->
          Alcotest.(check bool) "no double ownership" false (Hashtbl.mem owned c);
          Hashtbl.replace owned c ())
        b.Blocks.circuits)
    blocks;
  Array.iter
    (fun (c : Circuit.t) ->
      if not (Topo.circuit_active sc.Gen.topo c.Circuit.id) then
        Alcotest.(check bool) "every future circuit owned" true
          (Hashtbl.mem owned c.Circuit.id))
    (Topo.circuits sc.Gen.topo)

let test_symmetry_granularity () =
  let sc = Gen.scenario_of_label "A" in
  let ob = Blocks.organize sc in
  let sym = Blocks.symmetry_granularity sc in
  Alcotest.(check bool) "finer than operation blocks" true
    (List.length sym > List.length ob);
  match Blocks.validate sc.Gen.topo sym with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_hgrid_block_merges_roles () =
  (* Fig. 5: a grid's operation block holds FADUs and FAUUs together. *)
  let sc = Gen.scenario_of_label "A" in
  let blocks = Blocks.organize sc in
  let grid_block = List.hd blocks in
  let roles =
    Array.to_list grid_block.Blocks.switches
    |> List.map (fun s -> (Topo.switch sc.Gen.topo s).Switch.role)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "FADU and FAUU merged" [ "FADU"; "FAUU" ]
    (List.map Switch.role_to_string roles)

(* ---------------------------------------------------------------- *)
(* Compact representation *)

let test_compact_basics () =
  let actions =
    Action.Set.of_list
      [
        Action.make Action.Drain (Action.Hgrid_layer (1, 0));
        Action.make Action.Undrain (Action.Hgrid_layer (2, 0));
      ]
  in
  let v = Compact.origin actions in
  Alcotest.(check (array int)) "origin" [| 0; 0 |] v;
  let v1 = Compact.succ v 0 in
  Alcotest.(check (array int)) "succ" [| 1; 0 |] v1;
  Alcotest.(check (array int)) "succ leaves input" [| 0; 0 |] v;
  Alcotest.(check (array int)) "pred inverts" [| 0; 0 |] (Compact.pred v1 0);
  Alcotest.check_raises "pred at zero"
    (Invalid_argument "Compact.pred: no finished action of type") (fun () ->
      ignore (Compact.pred v 0));
  let counts = [| 1; 2 |] in
  Alcotest.(check bool) "not target" false (Compact.is_target v1 ~counts);
  Alcotest.(check bool) "target" true (Compact.is_target [| 1; 2 |] ~counts);
  Alcotest.(check int) "finished" 1 (Compact.finished v1);
  Alcotest.check feq "lattice size" 6.0 (Compact.state_space_size ~counts)

let prop_succ_pred_roundtrip =
  QCheck.Test.make ~count:200 ~name:"pred (succ v i) i = v"
    QCheck.(pair (list_of_size Gen.(int_range 1 6) (int_bound 5)) (int_bound 5))
    (fun (xs, i) ->
      let v = Array.of_list xs in
      let i = i mod Array.length v in
      Kutil.Vec_key.equal (Compact.pred (Compact.succ v i) i) v)

(* ---------------------------------------------------------------- *)
(* Cost *)

let test_cost_sequence () =
  Alcotest.check feq "empty" 0.0 (Cost.sequence ~alpha:0.0 []);
  Alcotest.check feq "single" 1.0 (Cost.sequence ~alpha:0.0 [ 0 ]);
  Alcotest.check feq "runs at alpha=0" 3.0
    (Cost.sequence ~alpha:0.0 [ 0; 0; 1; 1; 0 ]);
  Alcotest.check feq "alpha charges repeats" 3.6
    (Cost.sequence ~alpha:0.3 [ 0; 0; 1; 1; 0 ]);
  Alcotest.check feq "alpha=1 counts actions" 5.0
    (Cost.sequence ~alpha:1.0 [ 0; 0; 1; 1; 0 ])

let test_cost_step () =
  Alcotest.check feq "first action" 1.0 (Cost.step ~alpha:0.5 ~last:None 0);
  Alcotest.check feq "type change" 1.0 (Cost.step ~alpha:0.5 ~last:(Some 1) 0);
  Alcotest.check feq "repeat" 0.5 (Cost.step ~alpha:0.5 ~last:(Some 0) 0);
  Alcotest.check_raises "alpha range" (Invalid_argument "Cost: alpha must lie in [0, 1]")
    (fun () -> ignore (Cost.step ~alpha:1.5 ~last:None 0));
  Alcotest.check_raises "NaN alpha" (Invalid_argument "Cost: alpha must lie in [0, 1]")
    (fun () -> ignore (Cost.step ~alpha:Float.nan ~last:None 0))

let test_cost_runs () =
  Alcotest.(check (list (pair int int))) "runs" [ (0, 2); (1, 1); (0, 3) ]
    (Cost.runs [ 0; 0; 1; 0; 0; 0 ]);
  Alcotest.(check (list (pair int int))) "empty" [] (Cost.runs [])

let test_heuristic () =
  Alcotest.check feq "counts types at alpha=0" 2.0
    (Cost.heuristic ~alpha:0.0 [| 3; 0; 1 |]);
  Alcotest.check feq "eq 9 with alpha" (1.0 +. (0.5 *. 2.0) +. 1.0)
    (Cost.heuristic ~alpha:0.5 [| 3; 0; 1 |]);
  Alcotest.check feq "last-type tightening" 1.0
    (Cost.heuristic_with_last ~alpha:0.0 ~last:(Some 0) [| 3; 0; 1 |]);
  Alcotest.check feq "no tightening when last exhausted" 2.0
    (Cost.heuristic_with_last ~alpha:0.0 ~last:(Some 1) [| 3; 0; 1 |])

(* Admissibility: the heuristic never exceeds the cost of any completion
   (random multiset of remaining actions, random completion order). *)
let prop_heuristic_admissible =
  QCheck.Test.make ~count:300 ~name:"heuristic is admissible"
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 4) (int_bound 3))
        (float_bound_inclusive 1.0) int)
    (fun (counts, alpha, seed) ->
      let remaining = Array.of_list counts in
      (* Build a random completion sequence for the remaining multiset. *)
      let prng = Kutil.Prng.create ~seed in
      let pool = ref [] in
      Array.iteri
        (fun t n ->
          for _ = 1 to n do
            pool := t :: !pool
          done)
        remaining;
      let arr = Array.of_list !pool in
      Kutil.Prng.shuffle prng arr;
      let last = None in
      let completion_cost =
        Cost.sequence ~alpha (Array.to_list arr)
      in
      Cost.heuristic_with_last ~alpha ~last remaining
      <= completion_cost +. 1e-9)

(* ---------------------------------------------------------------- *)
(* Task *)

let test_task_structure () =
  let sc = Gen.scenario_of_label "A" in
  let task = Task.of_scenario sc in
  let n = Action.Set.cardinal task.Task.actions in
  Alcotest.(check int) "counts per type sum to blocks"
    (Task.total_blocks task)
    (Array.fold_left ( + ) 0 task.Task.counts);
  for a = 0 to n - 1 do
    Array.iter
      (fun b ->
        Alcotest.(check int) "canonical list holds its own type" a
          (Task.block_type task b))
      task.Task.blocks_by_type.(a)
  done

let test_task_with_params () =
  let sc = Gen.scenario_of_label "A" in
  let task = Task.of_scenario sc in
  let t2 = Task.with_params ~theta:0.6 ~alpha:0.2 task in
  Alcotest.check feq "theta" 0.6 t2.Task.theta;
  Alcotest.check feq "alpha" 0.2 t2.Task.alpha;
  Alcotest.check feq "original untouched" 0.75 task.Task.theta

let test_task_scale_demands () =
  let sc = Gen.scenario_of_label "A" in
  let task = Task.of_scenario sc in
  let n = Array.length task.Task.compiled in
  let t2 = Task.scale_demands task (Array.make n 2.0) in
  List.iter2
    (fun (d : Demand.t) (d' : Demand.t) ->
      Alcotest.check (Alcotest.float 1e-9) "volume doubled"
        (2.0 *. d.Demand.volume) d'.Demand.volume)
    task.Task.demands t2.Task.demands;
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Task.scale_demands: class count mismatch") (fun () ->
      ignore (Task.scale_demands task [| 1.0 |]))

let suite =
  ( "migration",
    [
      Alcotest.test_case "action strings" `Quick test_action_strings;
      Alcotest.test_case "action of_string" `Quick test_action_of_string;
      QCheck_alcotest.to_alcotest prop_op_string_roundtrip;
      Alcotest.test_case "action sets" `Quick test_action_set;
      Alcotest.test_case "blocks partition scenarios" `Slow
        test_organize_partition;
      Alcotest.test_case "block factor scaling" `Quick test_factor_scaling;
      Alcotest.test_case "huge block factor capped" `Quick test_factor_capped;
      Alcotest.test_case "future circuits attached" `Quick
        test_future_circuits_attached;
      Alcotest.test_case "symmetry granularity" `Quick test_symmetry_granularity;
      Alcotest.test_case "grid blocks merge roles" `Quick
        test_hgrid_block_merges_roles;
      Alcotest.test_case "compact basics" `Quick test_compact_basics;
      QCheck_alcotest.to_alcotest prop_succ_pred_roundtrip;
      Alcotest.test_case "cost of sequences" `Quick test_cost_sequence;
      Alcotest.test_case "marginal step costs" `Quick test_cost_step;
      Alcotest.test_case "run compression" `Quick test_cost_runs;
      Alcotest.test_case "heuristic values" `Quick test_heuristic;
      QCheck_alcotest.to_alcotest prop_heuristic_admissible;
      Alcotest.test_case "task structure" `Quick test_task_structure;
      Alcotest.test_case "task parameter variation" `Quick test_task_with_params;
      Alcotest.test_case "task demand scaling" `Quick test_task_scale_demands;
    ] )
