(* Tests for Switch, Circuit, Builder and the mutable Topo graph. *)

(* Usable circuits, counted over the circuits themselves. *)
let usable_count topo =
  let k = ref 0 in
  for j = 0 to Topo.n_circuits topo - 1 do
    if Topo.usable topo j then incr k
  done;
  !k

(* A small two-layer fixture: 2 RSWs under 2 FSWs, full mesh. *)
let mini () =
  let b = Builder.create ~switches:4 ~circuits:4 in
  let r0 = Builder.add_switch b ~name:"r0" ~role:Switch.RSW ~max_ports:4 () in
  let r1 = Builder.add_switch b ~name:"r1" ~role:Switch.RSW ~max_ports:4 () in
  let f0 = Builder.add_switch b ~name:"f0" ~role:Switch.FSW ~max_ports:4 () in
  let f1 = Builder.add_switch b ~name:"f1" ~role:Switch.FSW ~max_ports:4 () in
  let circuits =
    Builder.connect_all b ~los:[ r0; r1 ] ~his:[ f0; f1 ] ~capacity:1.0 ()
  in
  (Builder.freeze b, (r0, r1, f0, f1), circuits)

let test_roles () =
  List.iter
    (fun role ->
      Alcotest.(check (option bool))
        "role round trip" (Some true)
        (Option.map
           (fun r -> r = role)
           (Switch.role_of_string (Switch.role_to_string role))))
    Switch.all_roles;
  Alcotest.(check bool) "unknown role" true (Switch.role_of_string "XYZ" = None);
  Alcotest.(check bool) "case insensitive" true
    (Switch.role_of_string "fadu" = Some Switch.FADU)

let test_rank_monotone () =
  let ranks = List.map Switch.rank Switch.all_roles in
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "ranks strictly increase bottom-up" true
    (strictly_increasing ranks)

let test_circuit_orientation () =
  let b = Builder.create ~switches:2 ~circuits:1 in
  let r = Builder.add_switch b ~name:"r" ~role:Switch.RSW ~max_ports:4 () in
  let f = Builder.add_switch b ~name:"f" ~role:Switch.FSW ~max_ports:4 () in
  (* Deliberately pass hi-rank endpoint as [lo]; builder reorients. *)
  let c = Builder.add_circuit b ~lo:f ~hi:r ~capacity:1.0 () in
  let topo = Builder.freeze b in
  let circuit = Topo.circuit topo c in
  Alcotest.(check int) "lo is the lower-rank endpoint" r circuit.Circuit.lo;
  Alcotest.(check int) "hi is the higher-rank endpoint" f circuit.Circuit.hi;
  Alcotest.(check int) "other_end" f (Circuit.other_end circuit r)

let test_same_rank_rejected () =
  let b = Builder.create ~switches:2 ~circuits:1 in
  let r0 = Builder.add_switch b ~name:"r0" ~role:Switch.RSW ~max_ports:4 () in
  let r1 = Builder.add_switch b ~name:"r1" ~role:Switch.RSW ~max_ports:4 () in
  Alcotest.check_raises "same layer"
    (Invalid_argument "Builder.add_circuit: endpoints must be on different layers")
    (fun () -> ignore (Builder.add_circuit b ~lo:r0 ~hi:r1 ~capacity:1.0 ()))

(* A builder holds exactly its declared counts: adding past either one
   raises, and so does freezing short of either. *)
let test_declared_counts () =
  let fresh () =
    let b = Builder.create ~switches:2 ~circuits:1 in
    let r = Builder.add_switch b ~name:"r" ~role:Switch.RSW ~max_ports:4 () in
    let f = Builder.add_switch b ~name:"f" ~role:Switch.FSW ~max_ports:4 () in
    (b, r, f)
  in
  let b, r, f = fresh () in
  Alcotest.check_raises "switch past the count"
    (Invalid_argument "Builder.add_switch: more switches than declared")
    (fun () -> ignore (Builder.add_switch b ~name:"s" ~role:Switch.SSW ~max_ports:4 ()));
  ignore (Builder.add_circuit b ~lo:r ~hi:f ~capacity:1.0 ());
  Alcotest.check_raises "circuit past the count"
    (Invalid_argument "Builder.add_circuit: more circuits than declared")
    (fun () -> ignore (Builder.add_circuit b ~lo:r ~hi:f ~capacity:1.0 ()));
  Alcotest.(check int) "full builder freezes" 1 (Topo.n_circuits (Builder.freeze b));
  let b, _, _ = fresh () in
  Alcotest.check_raises "circuit short of the count"
    (Invalid_argument "Builder.freeze: 2 of 2 switches and 0 of 1 circuits added")
    (fun () -> ignore (Builder.freeze b));
  let b = Builder.create ~switches:2 ~circuits:0 in
  ignore (Builder.add_switch b ~name:"r" ~role:Switch.RSW ~max_ports:4 ());
  Alcotest.check_raises "switch short of the count"
    (Invalid_argument "Builder.freeze: 1 of 2 switches and 0 of 0 circuits added")
    (fun () -> ignore (Builder.freeze b))

(* A capacity that is not positive and finite is refused. *)
let test_capacity_guard () =
  List.iter
    (fun capacity ->
      let b = Builder.create ~switches:2 ~circuits:1 in
      let r = Builder.add_switch b ~name:"r" ~role:Switch.RSW ~max_ports:4 () in
      let f = Builder.add_switch b ~name:"f" ~role:Switch.FSW ~max_ports:4 () in
      Alcotest.check_raises (Printf.sprintf "capacity %g" capacity)
        (Invalid_argument "Builder.add_circuit: capacity must be positive and finite")
        (fun () -> ignore (Builder.add_circuit b ~lo:r ~hi:f ~capacity ())))
    [ 0.0; -1.0; infinity; neg_infinity; nan ]

let test_activity_toggles () =
  let topo, (r0, _, f0, _), circuits = mini () in
  Alcotest.(check int) "all usable" 4 (usable_count topo);
  Alcotest.(check int) "degree r0" 2 (Topo.usable_degree topo r0);
  Topo.set_switch_active topo f0 false;
  Alcotest.(check int) "f0 drain kills 2 circuits" 2 (usable_count topo);
  Alcotest.(check int) "r0 degree drops" 1 (Topo.usable_degree topo r0);
  Alcotest.(check int) "drained degree zero" 0 (Topo.usable_degree topo f0);
  Topo.set_switch_active topo f0 false;
  Alcotest.(check int) "idempotent" 2 (usable_count topo);
  Topo.set_switch_active topo f0 true;
  Alcotest.(check int) "restored" 4 (usable_count topo);
  let c0 = List.hd circuits in
  Topo.set_circuit_active topo c0 false;
  Alcotest.(check bool) "circuit inactive" false (Topo.usable topo c0);
  Alcotest.(check int) "one fewer usable" 3 (usable_count topo)

let test_port_violations () =
  let b = Builder.create ~switches:3 ~circuits:2 in
  let r = Builder.add_switch b ~name:"r" ~role:Switch.RSW ~max_ports:1 () in
  let f0 = Builder.add_switch b ~name:"f0" ~role:Switch.FSW ~max_ports:4 () in
  let f1 = Builder.add_switch b ~name:"f1" ~role:Switch.FSW ~max_ports:4 () in
  let c0 = Builder.add_circuit b ~lo:r ~hi:f0 ~capacity:1.0 () in
  ignore (Builder.add_circuit b ~lo:r ~hi:f1 ~capacity:1.0 ());
  let topo = Builder.freeze b in
  Alcotest.(check bool) "r over its 1-port budget" false (Topo.ports_ok topo);
  Alcotest.(check int) "one violator" 1 (Topo.port_violation_count topo);
  Topo.set_circuit_active topo c0 false;
  Alcotest.(check bool) "within budget after drain" true (Topo.ports_ok topo)

let test_future_elements () =
  let b = Builder.create ~switches:3 ~circuits:2 in
  let r = Builder.add_switch b ~name:"r" ~role:Switch.RSW ~max_ports:4 () in
  let f = Builder.add_switch b ~name:"f" ~role:Switch.FSW ~max_ports:4 () in
  let s =
    Builder.add_switch b ~name:"s" ~role:Switch.SSW ~future:true ~max_ports:4 ()
  in
  ignore (Builder.add_circuit b ~lo:r ~hi:f ~capacity:1.0 ());
  let cf = Builder.add_circuit b ~lo:f ~hi:s ~capacity:1.0 () in
  let topo = Builder.freeze b in
  Alcotest.(check bool) "future switch inactive" false (Topo.switch_active topo s);
  Alcotest.(check bool) "future circuit inactive" false
    (Topo.circuit_active topo cf);
  Alcotest.(check int) "only original circuit usable" 1 (usable_count topo)

let test_copy_independence () =
  let topo, (_, _, f0, _), _ = mini () in
  let copy = Topo.copy topo in
  Topo.set_switch_active copy f0 false;
  Alcotest.(check bool) "original unaffected" true (Topo.switch_active topo f0);
  Alcotest.(check int) "original usable count" 4 (usable_count topo)

let test_connectivity () =
  let topo, (r0, r1, f0, f1), _ = mini () in
  let connected () = Kutil.Bitset.mem (Topo.reachable topo ~from:[ r0 ]) r1 in
  Alcotest.(check bool) "connected" true (connected ());
  Topo.set_switch_active topo f0 false;
  Topo.set_switch_active topo f1 false;
  Alcotest.(check bool) "disconnected after draining spine" false
    (connected ())

let test_capacity_between () =
  let topo, _, _ = mini () in
  Alcotest.check (Alcotest.float 1e-9) "rsw-fsw capacity" 4.0
    (Topo.usable_capacity_between topo Switch.RSW Switch.FSW);
  Alcotest.check (Alcotest.float 1e-9) "no rsw-ssw capacity" 0.0
    (Topo.usable_capacity_between topo Switch.RSW Switch.SSW)

(* Random toggle sequences keep the incremental usable/port bookkeeping in
   sync with a from-scratch recomputation. *)
let prop_incremental_matches_recompute =
  QCheck.Test.make ~count:100 ~name:"incremental usable state is consistent"
    QCheck.(list (pair (int_bound 7) bool))
    (fun ops ->
      let topo, _, _ = mini () in
      List.iter
        (fun (i, active) ->
          if i < 4 then Topo.set_switch_active topo i active
          else Topo.set_circuit_active topo (i - 4) active)
        ops;
      (* Recompute from first principles. *)
      let usable_ref = ref 0 in
      let deg = Array.make (Topo.n_switches topo) 0 in
      Array.iter
        (fun (c : Circuit.t) ->
          if
            Topo.circuit_active topo c.Circuit.id
            && Topo.switch_active topo c.Circuit.lo
            && Topo.switch_active topo c.Circuit.hi
          then begin
            incr usable_ref;
            deg.(c.Circuit.lo) <- deg.(c.Circuit.lo) + 1;
            deg.(c.Circuit.hi) <- deg.(c.Circuit.hi) + 1
          end)
        (Topo.circuits topo);
      usable_count topo = !usable_ref
      && Array.for_all
           (fun (s : Switch.t) ->
             Topo.usable_degree topo s.Switch.id = deg.(s.Switch.id))
           (Topo.switches topo))

let suite =
  ( "topology",
    [
      Alcotest.test_case "role round trips" `Quick test_roles;
      Alcotest.test_case "rank order" `Quick test_rank_monotone;
      Alcotest.test_case "circuit orientation" `Quick test_circuit_orientation;
      Alcotest.test_case "same-rank circuits rejected" `Quick
        test_same_rank_rejected;
      Alcotest.test_case "declared counts" `Quick test_declared_counts;
      Alcotest.test_case "capacity guard" `Quick test_capacity_guard;
      Alcotest.test_case "activity toggles" `Quick test_activity_toggles;
      Alcotest.test_case "port violations" `Quick test_port_violations;
      Alcotest.test_case "future elements" `Quick test_future_elements;
      Alcotest.test_case "copy independence" `Quick test_copy_independence;
      Alcotest.test_case "connectivity" `Quick test_connectivity;
      Alcotest.test_case "capacity between roles" `Quick test_capacity_between;
      QCheck_alcotest.to_alcotest prop_incremental_matches_recompute;
    ] )
