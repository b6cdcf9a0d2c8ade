(* Tests for symmetry-block detection. *)

(* Two FAUUs wired to the same FADUs are equivalent; a third wired to only
   one of them is not. *)
let fixture () =
  let b = Builder.create ~switches:5 ~circuits:5 in
  let d0 = Builder.add_switch b ~name:"d0" ~role:Switch.FADU ~max_ports:8 () in
  let d1 = Builder.add_switch b ~name:"d1" ~role:Switch.FADU ~max_ports:8 () in
  let u0 = Builder.add_switch b ~name:"u0" ~role:Switch.FAUU ~max_ports:8 () in
  let u1 = Builder.add_switch b ~name:"u1" ~role:Switch.FAUU ~max_ports:8 () in
  let u2 = Builder.add_switch b ~name:"u2" ~role:Switch.FAUU ~max_ports:8 () in
  ignore (Builder.connect_all b ~los:[ d0; d1 ] ~his:[ u0; u1 ] ~capacity:1.0 ());
  ignore (Builder.add_circuit b ~lo:d0 ~hi:u2 ~capacity:1.0 ());
  (Builder.freeze b, d0, d1, u0, u1, u2)

let test_equivalent_switches_grouped () =
  let topo, _, _, u0, u1, u2 = fixture () in
  let blocks = Symmetry.blocks (Topo.universe topo) ~scope:[ u0; u1; u2 ] in
  Alcotest.(check int) "two blocks" 2 (List.length blocks);
  let members = List.map (fun b -> b.Symmetry.members) blocks in
  Alcotest.(check (list (list int))) "u0,u1 together; u2 alone"
    [ [ u0; u1 ]; [ u2 ] ]
    (List.sort compare members)

let test_role_separates () =
  let topo, d0, d1, u0, u1, u2 = fixture () in
  let blocks = Symmetry.blocks (Topo.universe topo) ~scope:[ d0; d1; u0; u1; u2 ] in
  List.iter
    (fun (blk : Symmetry.block) ->
      let roles =
        List.map (fun s -> (Topo.switch topo s).Switch.role) blk.Symmetry.members
      in
      Alcotest.(check bool) "uniform role within block" true
        (List.for_all (fun r -> r = List.hd roles) roles))
    blocks

let test_capacity_separates () =
  let b = Builder.create ~switches:3 ~circuits:2 in
  let d = Builder.add_switch b ~name:"d" ~role:Switch.FADU ~max_ports:8 () in
  let u0 = Builder.add_switch b ~name:"u0" ~role:Switch.FAUU ~max_ports:8 () in
  let u1 = Builder.add_switch b ~name:"u1" ~role:Switch.FAUU ~max_ports:8 () in
  ignore (Builder.add_circuit b ~lo:d ~hi:u0 ~capacity:1.0 ());
  ignore (Builder.add_circuit b ~lo:d ~hi:u1 ~capacity:2.0 ());
  let topo = Builder.freeze b in
  let blocks = Symmetry.blocks (Topo.universe topo) ~scope:[ u0; u1 ] in
  Alcotest.(check int) "different capacities split" 2 (List.length blocks)

let test_generation_separates () =
  let b = Builder.create ~switches:3 ~circuits:2 in
  let d = Builder.add_switch b ~name:"d" ~role:Switch.FADU ~max_ports:8 () in
  let u0 =
    Builder.add_switch b ~name:"u0" ~role:Switch.FAUU ~generation:1
      ~max_ports:8 ()
  in
  let u1 =
    Builder.add_switch b ~name:"u1" ~role:Switch.FAUU ~generation:2
      ~max_ports:8 ()
  in
  ignore (Builder.add_circuit b ~lo:d ~hi:u0 ~capacity:1.0 ());
  ignore (Builder.add_circuit b ~lo:d ~hi:u1 ~capacity:1.0 ());
  let topo = Builder.freeze b in
  Alcotest.(check int) "generations split" 2
    (List.length (Symmetry.blocks (Topo.universe topo) ~scope:[ u0; u1 ]))

let test_partition () =
  let sc = Gen.scenario_of_label "A" in
  let scope = sc.Gen.drain_switches @ sc.Gen.undrain_switches in
  let blocks = Symmetry.blocks (Topo.universe sc.Gen.topo) ~scope in
  let members = List.concat_map (fun b -> b.Symmetry.members) blocks in
  Alcotest.(check (list int)) "blocks partition the scope"
    (List.sort compare scope)
    (List.sort compare members)

let test_small_blocks_on_production_topos () =
  (* The paper: "Each symmetry block consists of at most two switches" at
     Meta.  Our generated FAUUs within a grid are mutually equivalent, so
     allow the per-grid FAUU count as the bound. *)
  let sc = Gen.scenario_of_label "B" in
  let scope = sc.Gen.drain_switches @ sc.Gen.undrain_switches in
  let blocks = Symmetry.blocks (Topo.universe sc.Gen.topo) ~scope in
  let p = sc.Gen.layout.Gen.params in
  let bound = max p.Gen.v1_fauu_per_grid p.Gen.v2_fauu_per_grid in
  Alcotest.(check bool) "blocks stay small" true
    (Symmetry.max_block_size blocks <= bound)

let test_max_block_size_empty () =
  Alcotest.(check int) "empty" 0 (Symmetry.max_block_size [])

let suite =
  ( "symmetry",
    [
      Alcotest.test_case "equivalent switches grouped" `Quick
        test_equivalent_switches_grouped;
      Alcotest.test_case "roles separate blocks" `Quick test_role_separates;
      Alcotest.test_case "capacities separate blocks" `Quick
        test_capacity_separates;
      Alcotest.test_case "generations separate blocks" `Quick
        test_generation_separates;
      Alcotest.test_case "blocks partition the scope" `Quick test_partition;
      Alcotest.test_case "production blocks are small" `Quick
        test_small_blocks_on_production_topos;
      Alcotest.test_case "max_block_size on empty" `Quick
        test_max_block_size_empty;
    ] )
