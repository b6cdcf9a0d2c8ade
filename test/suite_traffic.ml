(* Tests for the traffic substrate: demands, the ECMP flow engine, route
   derivation, demand matrices and forecasts. *)

let feq = Alcotest.float 1e-9

(* A fresh incremental state for one class, its rows grouped on their own. *)
let make_inc u c =
  Ecmp.make_inc u c (Option.get (Ecmp.group_rows [| c |] ~which:[| true |]).(0))

(* ---------------------------------------------------------------- *)
(* Demand *)

let test_demand_make () =
  let d =
    Demand.make ~name:"d" ~src:(Demand.Rsws_of_dc 0) ~dst:Demand.Backbone
      ~volume:2.0
  in
  Alcotest.check feq "volume" 2.0 d.Demand.volume;
  Alcotest.check feq "scaled" 3.0 (Demand.scale 1.5 d).Demand.volume;
  Alcotest.check_raises "negative volume"
    (Invalid_argument "Demand.make: negative volume") (fun () ->
      ignore
        (Demand.make ~name:"x" ~src:Demand.Backbone ~dst:(Demand.Rsws_of_dc 0)
           ~volume:(-1.0)));
  Alcotest.check_raises "src = dst"
    (Invalid_argument "Demand.make: source equals destination") (fun () ->
      ignore
        (Demand.make ~name:"x" ~src:(Demand.Rsws_of_dc 0)
           ~dst:(Demand.Rsws_of_dc 0) ~volume:1.0))

let test_demand_total () =
  let d v =
    Demand.make ~name:"d" ~src:(Demand.Rsws_of_dc 0) ~dst:Demand.Backbone
      ~volume:v
  in
  Alcotest.check feq "total" 6.0 (Demand.total_volume [ d 1.0; d 2.0; d 3.0 ])

(* ---------------------------------------------------------------- *)
(* ECMP engine on a hand-built two-hop fixture:
   r0, r1 -> f0, f1 (full mesh) -> s0 (both FSWs uplink). *)

let ecmp_fixture () =
  let b = Builder.create ~switches:5 ~circuits:6 in
  let r0 = Builder.add_switch b ~name:"r0" ~role:Switch.RSW ~max_ports:8 () in
  let r1 = Builder.add_switch b ~name:"r1" ~role:Switch.RSW ~max_ports:8 () in
  let f0 = Builder.add_switch b ~name:"f0" ~role:Switch.FSW ~max_ports:8 () in
  let f1 = Builder.add_switch b ~name:"f1" ~role:Switch.FSW ~max_ports:8 () in
  let s0 = Builder.add_switch b ~name:"s0" ~role:Switch.SSW ~max_ports:8 () in
  let rf = Builder.connect_all b ~los:[ r0; r1 ] ~his:[ f0; f1 ] ~capacity:1.0 () in
  let fs = Builder.connect_all b ~los:[ f0; f1 ] ~his:[ s0 ] ~capacity:2.0 () in
  (Builder.freeze b, (r0, r1, f0, f1, s0), rf, fs)

let role_is r (sw : Switch.t) = sw.Switch.role = r

let two_hop_compiled topo sources =
  Ecmp.compile (Topo.universe topo) ~sources
    ~hops:
      [ Ecmp.hop `Up (role_is Switch.FSW); Ecmp.hop `Up (role_is Switch.SSW) ]

let test_ecmp_equal_split () =
  let topo, (r0, _, _, _, _), rf, fs = ecmp_fixture () in
  let c = two_hop_compiled topo [ (r0, 4.0) ] in
  let scratch = Ecmp.make_scratch (Topo.universe topo) in
  let loads = Array.make (Topo.n_circuits topo) 0.0 in
  let result = Ecmp.evaluate topo scratch c ~loads in
  Alcotest.check feq "all delivered" 4.0 result.Ecmp.delivered;
  Alcotest.check feq "nothing stuck" 0.0 result.Ecmp.stuck;
  (* r0's volume splits equally over its two FSW uplinks... *)
  let r0_f0 = List.nth rf 0 and r0_f1 = List.nth rf 1 in
  Alcotest.check feq "r0->f0" 2.0 loads.(r0_f0);
  Alcotest.check feq "r0->f1" 2.0 loads.(r0_f1);
  (* ...and each FSW forwards its share up the single spine link. *)
  List.iter (fun j -> Alcotest.check feq "fsw->ssw" 2.0 loads.(j)) fs

let test_ecmp_conservation_repeated () =
  let topo, (r0, r1, _, _, _), _, _ = ecmp_fixture () in
  let c = two_hop_compiled topo [ (r0, 1.0); (r1, 3.0) ] in
  let scratch = Ecmp.make_scratch (Topo.universe topo) in
  let loads = Array.make (Topo.n_circuits topo) 0.0 in
  (* Same scratch reused across evaluations must give identical results. *)
  let r1 = Ecmp.evaluate topo scratch c ~loads in
  let first = Array.copy loads in
  Array.fill loads 0 (Array.length loads) 0.0;
  let r2 = Ecmp.evaluate topo scratch c ~loads in
  Alcotest.check feq "delivered equal" r1.Ecmp.delivered r2.Ecmp.delivered;
  Alcotest.(check bool) "loads equal" true (first = loads)

let test_ecmp_reroutes_around_drain () =
  let topo, (r0, _, f0, _, _), rf, _ = ecmp_fixture () in
  let c = two_hop_compiled topo [ (r0, 4.0) ] in
  Topo.set_switch_active topo f0 false;
  let scratch = Ecmp.make_scratch (Topo.universe topo) in
  let loads = Array.make (Topo.n_circuits topo) 0.0 in
  let result = Ecmp.evaluate topo scratch c ~loads in
  Alcotest.check feq "still delivered" 4.0 result.Ecmp.delivered;
  (* Everything funnels onto the surviving FSW: upstream funneling. *)
  let r0_f1 = List.nth rf 1 in
  Alcotest.check feq "survivor carries all" 4.0 loads.(r0_f1)

let test_ecmp_usefulness_avoids_dead_end () =
  (* f0 loses its spine uplink: ECMP must not send volume into it. *)
  let topo, (r0, _, _, _, _), rf, fs = ecmp_fixture () in
  let f0_s0 = List.nth fs 0 in
  Topo.set_circuit_active topo f0_s0 false;
  let c = two_hop_compiled topo [ (r0, 4.0) ] in
  let scratch = Ecmp.make_scratch (Topo.universe topo) in
  let loads = Array.make (Topo.n_circuits topo) 0.0 in
  let result = Ecmp.evaluate topo scratch c ~loads in
  Alcotest.check feq "delivered via f1 only" 4.0 result.Ecmp.delivered;
  Alcotest.check feq "nothing stuck" 0.0 result.Ecmp.stuck;
  Alcotest.check feq "dead branch unused" 0.0 loads.(List.nth rf 0)

(* Every id is checked once, where a class is built, and every
   evaluation compares the class's universe counts with what it indexes
   once, on entry: the per-row loops make no range check of their own,
   so these are the checks that stand between a mis-sized argument and
   a stray memory access. *)
let test_ecmp_moved_checks () =
  let topo, (r0, _, _, f1, _), rf, _ = ecmp_fixture () in
  let u = Topo.universe topo in
  let n = Universe.n_switches u and m = Universe.n_circuits u in
  let range what x bound =
    Invalid_argument (Printf.sprintf "Ecmp: %s %d out of range [0, %d)" what x bound)
  in
  Alcotest.check_raises "compile: a source past the switches"
    (range "source switch" n n) (fun () ->
      ignore (two_hop_compiled topo [ (r0, 1.0); (n, 1.0) ]));
  Alcotest.check_raises "compile: a negative source"
    (range "source switch" (-1) n) (fun () ->
      ignore (two_hop_compiled topo [ (-1, 1.0) ]));
  (* One stage of the fixture's first hop, column by column: a row holds
     its circuit, and its endpoints are the universe's. *)
  let stage ?(circuits = [| List.hd rf |]) ?(alt_hi = [||]) ?(skips = [||]) () =
    { Ecmp.dir = `Up; circuits; alt_hi; skips }
  in
  let assemble ?(sources = [ (r0, 1.0) ]) st =
    ignore (Ecmp.assemble u ~sources ~stages:[| st |])
  in
  assemble (stage ());
  Alcotest.check_raises "assemble: a circuit past the circuits"
    (range "circuit" m m) (fun () -> assemble (stage ~circuits:[| m |] ()));
  Alcotest.check_raises "assemble: a skip past the switches"
    (range "skip switch" (n + 3) n) (fun () -> assemble (stage ~skips:[| n + 3 |] ()));
  Alcotest.check_raises "assemble: a source past the switches"
    (range "source switch" n n) (fun () ->
      assemble ~sources:[ (n, 1.0) ] (stage ()));
  (* An alternative's hi endpoint stands in for a row's next switch, so
     it is checked like one; [-1] is the as-built wiring. *)
  assemble (stage ~alt_hi:[| -1 |] ());
  assemble (stage ~alt_hi:[| f1 |] ());
  Alcotest.check_raises "assemble: an alternative past the switches"
    (range "alternative switch" n n) (fun () ->
      assemble (stage ~alt_hi:[| n |] ()));
  let unequal = Invalid_argument "Ecmp: a stage's columns differ in length" in
  Alcotest.check_raises "assemble: alt_hi neither empty nor one per row" unequal
    (fun () -> assemble (stage ~alt_hi:[| -1; -1 |] ()));
  (* The entry checks, against the universe of A (42 switches, 87
     circuits): a scratch, overlay, loads or aux vector sized for the
     other universe is refused before any row is read. *)
  let a = Task.of_scenario (Gen.scenario_of_label "A") in
  let a_topo = a.Task.topo in
  let a_u = Topo.universe a_topo in
  let a_class = fst a.Task.compiled.(0) in
  let a_m = Universe.n_circuits a_u in
  let c = two_hop_compiled topo [ (r0, 4.0) ] in
  let scratch = Ecmp.make_scratch u and a_scratch = Ecmp.make_scratch a_u in
  let loads () = Array.make m 0.0 in
  let sized what = Invalid_argument ("Ecmp: " ^ what ^ " sized for another universe") in
  let evaluate ?aux topo sc c ~loads = ignore (Ecmp.evaluate ?aux topo sc c ~loads) in
  Alcotest.check_raises "evaluate: a larger universe's scratch"
    (sized "the scratch is") (fun () -> evaluate topo a_scratch c ~loads:(loads ()));
  Alcotest.check_raises "evaluate: a smaller universe's scratch"
    (sized "the scratch is") (fun () ->
      evaluate a_topo scratch a_class ~loads:(Array.make a_m 0.0));
  Alcotest.check_raises "evaluate: another universe's overlay"
    (sized "the overlay is") (fun () -> evaluate a_topo scratch c ~loads:(loads ()));
  Alcotest.check_raises "evaluate: loads too short" (sized "loads is") (fun () ->
      evaluate topo scratch c ~loads:(Array.make (m - 1) 0.0));
  Alcotest.check_raises "evaluate: loads too long" (sized "loads is") (fun () ->
      evaluate topo scratch c ~loads:(Array.make a_m 0.0));
  Alcotest.check_raises "evaluate: an aux vector too short"
    (sized "an aux vector is") (fun () ->
      evaluate
        ~aux:[| (Array.make m 0.0, 2.0); (Array.make (m - 1) 0.0, 2.0) |]
        topo scratch c ~loads:(loads ()));
  Alcotest.check_raises "make_inc: a class of another universe"
    (Invalid_argument "Ecmp.make_inc: the class was compiled for another universe")
    (fun () -> ignore (make_inc a_u c));
  let c' = two_hop_compiled topo [ (r0, 4.0) ] in
  Alcotest.check_raises "make_inc: another class's groups"
    (Invalid_argument "Ecmp.make_inc: the groups were built for another class")
    (fun () ->
      ignore
        (Ecmp.make_inc u c
           (Option.get (Ecmp.group_rows [| c' |] ~which:[| true |]).(0))));
  let st = make_inc u c in
  Alcotest.check_raises "evaluate_rebuild: a larger universe's scratch"
    (sized "the scratch is") (fun () ->
      ignore (Ecmp.evaluate_rebuild topo a_scratch st ~loads:(loads ())));
  Alcotest.check_raises "evaluate_rebuild: an aux vector too long"
    (sized "an aux vector is") (fun () ->
      ignore
        (Ecmp.evaluate_rebuild ~aux:[| (Array.make a_m 0.0, 2.0) |] topo scratch st
           ~loads:(loads ())));
  let l = loads () in
  Alcotest.check feq "a rebuild on matching sizes" 0.0
    (Ecmp.evaluate_rebuild topo scratch st ~loads:l);
  let toggled = Ecmp.make_toggles u ~capacity:0 and moved = Topo.circuit_marks topo in
  Alcotest.check_raises "evaluate_patch: loads too short" (sized "loads is")
    (fun () ->
      ignore
        (Ecmp.evaluate_patch topo scratch st ~dirty:1 ~toggled ~moved
           ~loads:(Array.make (m - 1) 0.0)));
  Alcotest.check_raises "evaluate_patch: another universe's overlay"
    (sized "the overlay is") (fun () ->
      ignore (Ecmp.evaluate_patch a_topo scratch st ~dirty:1 ~toggled ~moved ~loads:l));
  Alcotest.check_raises "evaluate_patch: another universe's toggles"
    (sized "the toggles are") (fun () ->
      ignore
        (Ecmp.evaluate_patch topo scratch st ~dirty:1 ~toggled:(Ecmp.make_toggles a_u ~capacity:0)
           ~moved ~loads:l));
  Alcotest.check_raises "evaluate_patch: moved marks too short"
    (sized "the moved marks are") (fun () ->
      ignore
        (Ecmp.evaluate_patch topo scratch st ~dirty:1 ~toggled ~moved:Bytes.empty
           ~loads:l));
  (* The refused calls left the scratch and the record as they were. *)
  Alcotest.check feq "a patch after the refusals" 0.0
    (Ecmp.evaluate_patch topo scratch st ~dirty:1 ~toggled ~moved ~loads:l);
  let r = Ecmp.evaluate topo scratch c ~loads:(loads ()) in
  Alcotest.check feq "delivered after the refusals" 4.0 r.Ecmp.delivered;
  Alcotest.check feq "loads after the refusals" 8.0 (Array.fold_left ( +. ) 0.0 l)

let test_ecmp_stuck_when_cut () =
  let topo, (r0, _, f0, f1, _), _, _ = ecmp_fixture () in
  Topo.set_switch_active topo f0 false;
  Topo.set_switch_active topo f1 false;
  let c = two_hop_compiled topo [ (r0, 4.0) ] in
  let scratch = Ecmp.make_scratch (Topo.universe topo) in
  let loads = Array.make (Topo.n_circuits topo) 0.0 in
  let result = Ecmp.evaluate topo scratch c ~loads in
  Alcotest.check feq "all stuck" 4.0 result.Ecmp.stuck;
  Alcotest.check feq "none delivered" 0.0 result.Ecmp.delivered

let test_ecmp_scale_linearity () =
  let topo, (r0, _, _, _, _), _, fs = ecmp_fixture () in
  let c = two_hop_compiled topo [ (r0, 4.0) ] in
  let scratch = Ecmp.make_scratch (Topo.universe topo) in
  let loads1 = Array.make (Topo.n_circuits topo) 0.0 in
  ignore (Ecmp.evaluate topo scratch c ~loads:loads1);
  let loads2 = Array.make (Topo.n_circuits topo) 0.0 in
  ignore (Ecmp.evaluate ~scale:2.5 topo scratch c ~loads:loads2);
  List.iter
    (fun j -> Alcotest.check feq "linear in scale" (2.5 *. loads1.(j)) loads2.(j))
    fs

let test_ecmp_weighted_split () =
  (* Two uplinks of unequal capacity: `Capacity_weighted splits the volume
     proportionally to capacity, `Equal ignores it. *)
  let b = Builder.create ~switches:4 ~circuits:4 in
  let r = Builder.add_switch b ~name:"r" ~role:Switch.RSW ~max_ports:8 () in
  let f0 = Builder.add_switch b ~name:"f0" ~role:Switch.FSW ~max_ports:8 () in
  let f1 = Builder.add_switch b ~name:"f1" ~role:Switch.FSW ~max_ports:8 () in
  let s = Builder.add_switch b ~name:"s" ~role:Switch.SSW ~max_ports:8 () in
  let r_f0 = Builder.add_circuit b ~lo:r ~hi:f0 ~capacity:1.0 () in
  let r_f1 = Builder.add_circuit b ~lo:r ~hi:f1 ~capacity:3.0 () in
  let f0_s = Builder.add_circuit b ~lo:f0 ~hi:s ~capacity:4.0 () in
  let f1_s = Builder.add_circuit b ~lo:f1 ~hi:s ~capacity:4.0 () in
  let topo = Builder.freeze b in
  let c = two_hop_compiled topo [ (r, 4.0) ] in
  let scratch = Ecmp.make_scratch (Topo.universe topo) in
  let loads = Array.make (Topo.n_circuits topo) 0.0 in
  let result = Ecmp.evaluate ~split:`Capacity_weighted topo scratch c ~loads in
  Alcotest.check feq "all delivered" 4.0 result.Ecmp.delivered;
  Alcotest.check feq "nothing stuck" 0.0 result.Ecmp.stuck;
  (* Proportional shares: 1/(1+3) and 3/(1+3) of the 4.0. *)
  Alcotest.check feq "quarter on the thin circuit" 1.0 loads.(r_f0);
  Alcotest.check feq "three quarters on the fat circuit" 3.0 loads.(r_f1);
  (* The second hop has one candidate per FSW: weighting changes nothing,
     each forwards exactly what it received. *)
  Alcotest.check feq "f0 forwards its share" 1.0 loads.(f0_s);
  Alcotest.check feq "f1 forwards its share" 3.0 loads.(f1_s);
  (* Same fixture under `Equal for contrast: capacity is ignored. *)
  Array.fill loads 0 (Array.length loads) 0.0;
  ignore (Ecmp.evaluate ~split:`Equal topo scratch c ~loads);
  Alcotest.check feq "equal split ignores capacity" 2.0 loads.(r_f0)

let test_ecmp_weighted_skip_carries () =
  (* A skip switch carries its volume past the hop unweighted: the
     capacity-weighted policy must not redistribute it. *)
  let b = Builder.create ~switches:2 ~circuits:1 in
  let f = Builder.add_switch b ~name:"f" ~role:Switch.FSW ~max_ports:4 () in
  let s = Builder.add_switch b ~name:"s" ~role:Switch.SSW ~max_ports:4 () in
  ignore (Builder.add_circuit b ~lo:f ~hi:s ~capacity:5.0 ());
  let topo = Builder.freeze b in
  let c =
    Ecmp.compile (Topo.universe topo)
      ~sources:[ (f, 1.0); (s, 2.0) ]
      ~hops:[ Ecmp.hop `Up ~skip:(role_is Switch.SSW) (role_is Switch.SSW) ]
  in
  let scratch = Ecmp.make_scratch (Topo.universe topo) in
  let loads = Array.make (Topo.n_circuits topo) 0.0 in
  let result = Ecmp.evaluate ~split:`Capacity_weighted topo scratch c ~loads in
  Alcotest.check feq "both delivered" 3.0 result.Ecmp.delivered;
  Alcotest.check feq "only f's share on the wire" 1.0 loads.(0)

let test_ecmp_skip_carries () =
  (* A source already at the destination layer carries through the skip. *)
  let b = Builder.create ~switches:2 ~circuits:1 in
  let f = Builder.add_switch b ~name:"f" ~role:Switch.FSW ~max_ports:4 () in
  let s = Builder.add_switch b ~name:"s" ~role:Switch.SSW ~max_ports:4 () in
  ignore (Builder.add_circuit b ~lo:f ~hi:s ~capacity:1.0 ());
  let topo = Builder.freeze b in
  let c =
    Ecmp.compile (Topo.universe topo)
      ~sources:[ (f, 1.0); (s, 1.0) ]
      ~hops:[ Ecmp.hop `Up ~skip:(role_is Switch.SSW) (role_is Switch.SSW) ]
  in
  let scratch = Ecmp.make_scratch (Topo.universe topo) in
  let loads = Array.make (Topo.n_circuits topo) 0.0 in
  let result = Ecmp.evaluate topo scratch c ~loads in
  Alcotest.check feq "both delivered" 2.0 result.Ecmp.delivered;
  Alcotest.check feq "only f's share on the wire" 1.0 loads.(0)

(* Conservation holds under arbitrary random drains of the fixture. *)
let prop_conservation =
  QCheck.Test.make ~count:200 ~name:"delivered + stuck = injected"
    QCheck.(list (int_bound 4))
    (fun drains ->
      let topo, (r0, r1, _, _, _), _, _ = ecmp_fixture () in
      List.iter (fun s -> Topo.set_switch_active topo s false) drains;
      (* Keep the sources alive so their volume actually enters. *)
      Topo.set_switch_active topo r0 true;
      Topo.set_switch_active topo r1 true;
      let c = two_hop_compiled topo [ (r0, 1.0); (r1, 2.0) ] in
      let scratch = Ecmp.make_scratch (Topo.universe topo) in
      let loads = Array.make (Topo.n_circuits topo) 0.0 in
      let r = Ecmp.evaluate topo scratch c ~loads in
      Float.abs (r.Ecmp.delivered +. r.Ecmp.stuck -. 3.0) < 1e-9
      && Array.for_all (fun l -> l >= 0.0) loads)

(* ---------------------------------------------------------------- *)
(* Routes *)

let test_routes_structure () =
  let ew =
    Demand.make ~name:"ew" ~src:(Demand.Rsws_of_dc 0)
      ~dst:(Demand.Rsws_except_dc 0) ~volume:1.0
  in
  Alcotest.(check int) "east-west hop count" 4 (List.length (Routes.hops_for ew));
  let egress =
    Demand.make ~name:"eg" ~src:(Demand.Rsws_of_dc 0) ~dst:Demand.Backbone
      ~volume:1.0
  in
  Alcotest.(check int) "egress hop count" 8 (List.length (Routes.hops_for egress));
  let ingress =
    Demand.make ~name:"in" ~src:Demand.Backbone ~dst:(Demand.Rsws_of_dc 1)
      ~volume:1.0
  in
  Alcotest.(check int) "ingress hop count" 6
    (List.length (Routes.hops_for ingress))

let test_routes_sources_spread () =
  let rsws_by_dc = [| [ 10; 11; 12; 13 ] |] in
  let d =
    Demand.make ~name:"d" ~src:(Demand.Rsws_of_dc 0) ~dst:Demand.Backbone
      ~volume:2.0
  in
  let sources = Routes.sources_for ~rsws_by_dc ~ebbs:[ 99 ] d in
  Alcotest.(check int) "one per RSW" 4 (List.length sources);
  Alcotest.check feq "shares sum to volume" 2.0
    (List.fold_left (fun acc (_, v) -> acc +. v) 0.0 sources);
  let ingress =
    Demand.make ~name:"i" ~src:Demand.Backbone ~dst:(Demand.Rsws_of_dc 0)
      ~volume:3.0
  in
  Alcotest.(check (list (pair int (float 1e-9))))
    "backbone sources" [ (99, 3.0) ]
    (Routes.sources_for ~rsws_by_dc ~ebbs:[ 99 ] ingress)

let test_routes_errors () =
  let bad =
    Demand.make ~name:"bad" ~src:Demand.Backbone ~dst:(Demand.Rsws_of_dc 5)
      ~volume:1.0
  in
  Alcotest.check_raises "dc out of range"
    (Invalid_argument "Routes.sources_for: DC index out of range") (fun () ->
      ignore
        (Routes.sources_for ~rsws_by_dc:[| [ 1 ] |] ~ebbs:[ 2 ]
           { bad with Demand.src = Demand.Rsws_of_dc 5 }))

let test_end_to_end_delivery () =
  (* All demand classes route with nothing stuck on scenario A. *)
  let sc = Gen.scenario_of_label "A" in
  let prng = Kutil.Prng.create ~seed:1 in
  let demands = Matrix.generate ~prng ~dcs:sc.Gen.layout.Gen.params.Gen.dcs () in
  let topo = sc.Gen.topo in
  let scratch = Ecmp.make_scratch (Topo.universe topo) in
  let loads = Array.make (Topo.n_circuits topo) 0.0 in
  List.iter
    (fun d ->
      let c =
        Routes.compile (Topo.universe topo) ~rsws_by_dc:sc.Gen.layout.Gen.rsws_by_dc
          ~ebbs:sc.Gen.layout.Gen.ebbs d
      in
      let r = Ecmp.evaluate topo scratch c ~loads in
      Alcotest.check (Alcotest.float 1e-6)
        (d.Demand.name ^ " fully delivered")
        d.Demand.volume r.Ecmp.delivered)
    demands

(* ---------------------------------------------------------------- *)
(* Compile differential: the fast compiler against a whole-universe scan *)

(* Reference compiler, the oracle [Ecmp.compile] must match row for row:
   every hop visits every circuit of the universe, the as-built row
   first, then one row per wiring alternative in [alts] order, and finds
   skips by scanning every switch.  The stages come out as explicit
   [(circuit, alt_hi, prev, next)] rows and skip switches. *)
let reference_rows ?(alts = []) u ~sources ~hops =
  let n = Universe.n_switches u in
  let alt_tbl = Hashtbl.create 16 in
  List.iter
    (fun (j, h) ->
      let prev = Option.value (Hashtbl.find_opt alt_tbl j) ~default:[] in
      if not (List.mem h prev) then Hashtbl.replace alt_tbl j (h :: prev))
    alts;
  let potential = ref (Kutil.Bitset.create n) in
  List.iter (fun (s, v) -> if v > 0.0 then Kutil.Bitset.add !potential s) sources;
  let stage (h : Ecmp.hop) =
    let rows = ref [] and skips = ref [] in
    let next_potential = Kutil.Bitset.create n in
    for j = 0 to Universe.n_circuits u - 1 do
      let lo = Universe.endpoint_lo u j in
      let consider alt hi =
        let prev, next =
          match h.Ecmp.dir with `Up -> (lo, hi) | `Down -> (hi, lo)
        in
        if Kutil.Bitset.mem !potential prev && h.Ecmp.accept (Universe.switch u next)
        then begin
          rows := (j, alt, prev, next) :: !rows;
          Kutil.Bitset.add next_potential next
        end
      in
      consider (-1) (Universe.endpoint_hi u j);
      List.iter
        (fun ah -> consider ah ah)
        (List.rev (Option.value (Hashtbl.find_opt alt_tbl j) ~default:[]))
    done;
    for s = 0 to n - 1 do
      if Kutil.Bitset.mem !potential s && h.Ecmp.skip (Universe.switch u s) then begin
        skips := s :: !skips;
        Kutil.Bitset.add next_potential s
      end
    done;
    potential := next_potential;
    (Array.of_list (List.rev !rows), Array.of_list (List.rev !skips))
  in
  Array.of_list (List.map stage hops)

(* Explicit rows as the columns [Ecmp.assemble] takes, which drop the
   endpoints: [assemble] reads them from the universe. *)
let columns (h : Ecmp.hop) (rows, skips) =
  let col f = Array.map f rows in
  {
    Ecmp.dir = h.Ecmp.dir;
    circuits = col (fun (j, _, _, _) -> j);
    alt_hi = col (fun (_, a, _, _) -> a);
    skips;
  }

(* The scan's rows assembled into a class, and the scan's explicit
   [(stage, circuit, prev, next)] tuples as [candidate_rows] lists a
   class's: the endpoints to compare a class against, since any
   assembled class reads its endpoints from the universe. *)
let reference_compile ?alts u ~sources ~hops =
  let stages = reference_rows ?alts u ~sources ~hops in
  let candidates =
    List.concat
      (List.mapi
         (fun k (rows, _) ->
           List.map (fun (j, _, prev, next) -> (k, j, prev, next)) (Array.to_list rows))
         (Array.to_list stages))
  in
  (Ecmp.assemble u ~sources ~stages:(Array.map2 columns (Array.of_list hops) stages),
   candidates)

(* Reference evaluator, the oracle for [Ecmp.evaluate] and
   [Ecmp.evaluate_rebuild], over explicit rows: every visit of a row
   probes its usability ([Topo.usable_wired]) and its next switch's
   usefulness afresh, with no verdict kept between passes.  Its
   arithmetic and order are the ones the fast paths must keep, so
   loads, aux loads and stuck volume must agree bit for bit. *)
let reference_evaluate ?(scale = 1.0) ?(split = `Equal) ?(aux = [||]) topo
    ~sources ~stages ~loads =
  let module B = Kutil.Bitset in
  let n = Topo.n_switches topo and n_stages = Array.length stages in
  let weighted = split = `Capacity_weighted in
  let useful = Array.init (n_stages + 1) (fun _ -> B.create n) in
  B.fill useful.(n_stages);
  let qualifies k (j, alt, _, next) =
    Topo.usable_wired topo j alt && B.mem useful.(k + 1) next
  in
  for k = n_stages - 1 downto 0 do
    let rows, skips = stages.(k) in
    Array.iter
      (fun ((_, _, prev, _) as row) -> if qualifies k row then B.add useful.(k) prev)
      rows;
    Array.iter (fun s -> if B.mem useful.(k + 1) s then B.add useful.(k) s) skips
  done;
  let vol = Array.make n 0.0 and nvol = Array.make n 0.0 in
  let cand = Array.make n 0 and candw = Array.make n 0.0 in
  (* Switches in first-touch order: sums over them follow that order. *)
  let touched = ref [] and stuck = ref 0.0 in
  List.iter
    (fun (s, v) ->
      if v > 0.0 then begin
        if Float.equal vol.(s) 0.0 then touched := s :: !touched;
        vol.(s) <- vol.(s) +. (v *. scale)
      end)
    sources;
  Array.iteri
    (fun k (rows, skips) ->
      let ntouched = ref [] in
      Array.iter
        (fun s -> if vol.(s) > 0.0 && B.mem useful.(k + 1) s then cand.(s) <- -1)
        skips;
      Array.iter
        (fun ((j, _, prev, _) as row) ->
          if vol.(prev) > 0.0 && cand.(prev) >= 0 && qualifies k row then begin
            cand.(prev) <- cand.(prev) + 1;
            if weighted then candw.(prev) <- candw.(prev) +. Topo.capacity topo j
          end)
        rows;
      Array.iter
        (fun ((j, _, prev, next) as row) ->
          let v = vol.(prev) in
          if v > 0.0 && cand.(prev) > 0 && qualifies k row then begin
            let share =
              if weighted then v *. Topo.capacity topo j /. candw.(prev)
              else v /. float_of_int cand.(prev)
            in
            loads.(j) <- loads.(j) +. share;
            Array.iter (fun (l, f) -> l.(j) <- l.(j) +. (share *. f)) aux;
            if Float.equal nvol.(next) 0.0 then ntouched := next :: !ntouched;
            nvol.(next) <- nvol.(next) +. share
          end)
        rows;
      Array.iter
        (fun s ->
          if cand.(s) = -1 && vol.(s) > 0.0 then begin
            if Float.equal nvol.(s) 0.0 then ntouched := s :: !ntouched;
            nvol.(s) <- nvol.(s) +. vol.(s)
          end)
        skips;
      List.iter
        (fun s ->
          if vol.(s) > 0.0 && cand.(s) = 0 then stuck := !stuck +. vol.(s);
          vol.(s) <- 0.0;
          cand.(s) <- 0;
          candw.(s) <- 0.0)
        (List.rev !touched);
      touched := [];
      List.iter
        (fun s ->
          vol.(s) <- nvol.(s);
          nvol.(s) <- 0.0;
          touched := s :: !touched)
        (List.rev !ntouched))
    stages;
  let delivered =
    List.fold_left (fun acc s -> acc +. vol.(s)) 0.0 (List.rev !touched)
  in
  { Ecmp.delivered; stuck = !stuck }

let candidate_rows c =
  let rows = ref [] in
  Ecmp.iter_candidates c ~f:(fun ~stage ~circuit ~prev ~next ->
      rows := (stage, circuit, prev, next) :: !rows);
  List.rev !rows

let evaluated_loads topo c =
  let u = Topo.universe topo in
  let loads = Array.make (Universe.n_circuits u) 0.0 in
  let r = Ecmp.evaluate topo (Ecmp.make_scratch u) c ~loads in
  (r, loads)

let same_evaluation what topo fast oracle =
  let r, loads = evaluated_loads topo fast in
  let r', loads' = evaluated_loads topo oracle in
  Alcotest.(check bool) (what ^ ": delivered and stuck") true
    (Float.equal r.Ecmp.delivered r'.Ecmp.delivered
    && Float.equal r.Ecmp.stuck r'.Ecmp.stuck);
  Alcotest.(check bool) (what ^ ": loads bit-identical per circuit") true
    (Array.for_all2 Float.equal loads loads')

(* A [`Down] alternative row can start where the as-built wiring never
   reaches: volume enters at [s1]/[s2] only, and circuit [c] is cabled to
   [s0] until it is rewired.  Neither [s1] nor [s2] lists [c] in its
   adjacency, so the rows must come from [alts] itself — one per
   distinct alternative, in [alts] order. *)
let test_compile_alt_row_off_frontier () =
  let b = Builder.create ~switches:4 ~circuits:1 in
  let sw name role = Builder.add_switch b ~name ~role ~max_ports:8 () in
  let f0 = sw "f0" Switch.FSW in
  let s0 = sw "s0" Switch.SSW and s1 = sw "s1" Switch.SSW in
  let s2 = sw "s2" Switch.SSW in
  let c = List.hd (Builder.connect_all b ~los:[ f0 ] ~his:[ s0 ] ~capacity:1.0 ()) in
  let topo = Builder.freeze b in
  let u = Topo.universe topo in
  let sources = [ (s2, 1.0); (s1, 2.0) ] in
  let hops = [ Ecmp.hop `Down (role_is Switch.FSW) ] in
  let alts = [ (c, s2); (c, s1); (c, s2) ] in
  let fast = Ecmp.compile ~alts u ~sources ~hops in
  let oracle, candidates = reference_compile ~alts u ~sources ~hops in
  Alcotest.(check (list (pair int (pair int (pair int int)))))
    "one row per alternative, in alts order"
    [ (0, (c, (s2, f0))); (0, (c, (s1, f0))) ]
    (List.map (fun (k, j, p, n) -> (k, (j, (p, n)))) (candidate_rows fast));
  Alcotest.(check bool) "same rows as the scan" true
    (candidates = candidate_rows fast);
  Topo.set_circuit_hi topo c (Some s1);
  let r, loads = evaluated_loads topo fast in
  Alcotest.check feq "only the live wiring delivers" 2.0 r.Ecmp.delivered;
  Alcotest.check feq "circuit load" 2.0 loads.(c);
  same_evaluation "rewired fixture" topo fast oracle;
  (* From [s0] alone the alternative row never starts, so the stage has
     no alternative rows; the rewired circuit's as-built row is dead
     all the same. *)
  let sources = [ (s0, 1.0) ] in
  let fast = Ecmp.compile ~alts u ~sources ~hops in
  let oracle, _ = reference_compile ~alts u ~sources ~hops in
  let r, _ = evaluated_loads topo fast in
  Alcotest.check feq "a rewired circuit's as-built row is dead" 0.0
    r.Ecmp.delivered;
  same_evaluation "rewired, no alternative rows" topo fast oracle

(* A scenario's rewire groups as [Ecmp.compile]'s wiring alternatives. *)
let scenario_alts (sc : Gen.scenario) =
  List.concat_map
    (fun (_, circuits, hi) -> List.map (fun j -> (j, hi)) circuits)
    sc.Gen.rewire_groups

let test_compile_matches_reference () =
  List.iter
    (fun (label, scenario) ->
      let sc = scenario () in
      let topo = sc.Gen.topo in
      let u = Topo.universe topo in
      let layout = sc.Gen.layout in
      let alts = scenario_alts sc in
      (* The OCS tier is also evaluated with every rewire applied, so the
         alternative rows carry the flow. *)
      let rewired =
        if alts = [] then None
        else begin
          let t = Topo.copy topo in
          List.iter (fun (j, hi) -> Topo.set_circuit_hi t j (Some hi)) alts;
          Some t
        end
      in
      let demands =
        Matrix.generate ~prng:(Kutil.Prng.create ~seed:42)
          ~dcs:layout.Gen.params.Gen.dcs ()
      in
      List.iter
        (fun (d : Demand.t) ->
          let what = label ^ " " ^ d.Demand.name in
          let fast =
            Routes.compile ~alts u ~rsws_by_dc:layout.Gen.rsws_by_dc
              ~ebbs:layout.Gen.ebbs d
          in
          let sources =
            Routes.sources_for ~rsws_by_dc:layout.Gen.rsws_by_dc
              ~ebbs:layout.Gen.ebbs d
          and hops = Routes.hops_for d in
          let oracle, candidates = reference_compile ~alts u ~sources ~hops in
          Alcotest.(check (array int)) (what ^ ": stage sizes")
            (Ecmp.stage_sizes oracle) (Ecmp.stage_sizes fast);
          Alcotest.(check bool) (what ^ ": candidate rows") true
            (candidates = candidate_rows fast);
          same_evaluation what topo fast oracle;
          Option.iter
            (fun t -> same_evaluation (what ^ " rewired") t fast oracle)
            rewired)
        demands)
    [
      ("A", fun () -> Gen.scenario_of_label "A");
      ("C", fun () -> Gen.scenario_of_label "C");
      ("E-SSW", fun () -> Gen.scenario_of_label "E-SSW");
      ("OCS-LITE", fun () -> Gen.scenario_of_label "OCS-LITE");
      (* The MA layer is optional on its egress and ingress routes, so
         the skip hops carry rows and skip switches. *)
      ( "C-DMAG, six MAs",
        fun () -> Gen.build Gen.Dmag (Suite_incremental.dmag_six_mas ()) );
    ]

(* Every class of a scenario as [Ecmp.compile]'s inputs. *)
let class_inputs (sc : Gen.scenario) =
  let layout = sc.Gen.layout in
  List.map
    (fun d ->
      ( d,
        Routes.sources_for ~rsws_by_dc:layout.Gen.rsws_by_dc
          ~ebbs:layout.Gen.ebbs d,
        Routes.hops_for d ))
    (Matrix.generate ~prng:(Kutil.Prng.create ~seed:42)
       ~dcs:layout.Gen.params.Gen.dcs ())

(* [Ecmp.compile] asks a hop's [accept] and [skip] about a switch at
   most once: counting predicates over every class of C see no switch
   twice in one hop, and compile the same rows as the plain ones. *)
let test_compile_asks_once () =
  let sc = Gen.scenario_of_label "C" in
  let u = Topo.universe sc.Gen.topo in
  let n = Universe.n_switches u in
  List.iter
    (fun ((d : Demand.t), sources, hops) ->
      let counted = ref [] in
      let counting f =
        let calls = Array.make n 0 in
        counted := calls :: !counted;
        fun (sw : Switch.t) ->
          calls.(sw.Switch.id) <- calls.(sw.Switch.id) + 1;
          f sw
      in
      let counting_hops =
        List.map
          (fun (h : Ecmp.hop) ->
            Ecmp.hop ~skip:(counting h.Ecmp.skip) h.Ecmp.dir (counting h.Ecmp.accept))
          hops
      in
      let c = Ecmp.compile u ~sources ~hops:counting_hops in
      let most = List.fold_left (fun m a -> Array.fold_left max m a) 0 !counted in
      Alcotest.(check int) (d.Demand.name ^ ": most calls per switch and hop") 1 most;
      Alcotest.(check bool) (d.Demand.name ^ ": same rows") true
        (candidate_rows c = candidate_rows (Ecmp.compile u ~sources ~hops)))
    (class_inputs sc)

(* Compiling a class allocates its returned columns and O(|S|/8 + |C|/8)
   words of marks, not a growable copy of every column: per class, the
   words allocated stay within one per row (its circuit: the endpoints
   are the universe's), one more per row on a stage with alternative
   rows (its [alt_hi]), two per injecting source, a per-stage allowance
   for headers and skip switches, (|S| + |C|)/8, and what
   [Universe.start_walk] spends sorting the wiring alternatives, measured
   alone.  A per-row endpoint column put back breaks the bound.  Columns
   over 256 words skip the minor heap, so the count adds the direct
   major words, read after a full major cycle. *)
let test_compile_allocation () =
  let counters () =
    Gc.full_major ();
    let s = Gc.quick_stat () in
    Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words
  in
  List.iter
    (fun (label, sc) ->
      let u = Topo.universe sc.Gen.topo in
      let alts = scenario_alts sc in
      let marks = (Universe.n_switches u + Universe.n_circuits u) / 8 in
      let walk_words alts =
        let before = counters () in
        ignore (Sys.opaque_identity (Universe.start_walk u ~sources:[||] ~alts));
        counters () -. before
      in
      let sorting = int_of_float (walk_words alts -. walk_words []) in
      List.iter
        (fun ((d : Demand.t), sources, hops) ->
          let before = counters () in
          let c = Ecmp.compile ~alts u ~sources ~hops in
          let words = counters () -. before in
          let rows = Ecmp.stage_circuit_count c in
          let alt_rows =
            Array.fold_left
              (fun acc (rows, _) ->
                if Array.exists (fun (_, a, _, _) -> a >= 0) rows then
                  acc + Array.length rows
                else acc)
              0
              (reference_rows ~alts u ~sources ~hops)
          in
          let injecting = List.length (List.filter (fun (_, v) -> v > 0.0) sources) in
          let bound =
            rows + alt_rows + (2 * injecting) + (64 * Ecmp.n_stages c) + marks
            + sorting
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: %.0f words for %d rows (bound %d)" label
               d.Demand.name words rows bound)
            true
            (words <= float_of_int bound))
        (class_inputs sc))
    [
      ("C-SSW", Gen.build Gen.Ssw_forklift (Gen.params_c ()));
      ("C-DMAG, six MAs", Gen.build Gen.Dmag (Suite_incremental.dmag_six_mas ()));
      ("OCS-LITE", Gen.scenario_of_label "OCS-LITE");
    ]

(* Bit-level equality: [Float.equal] would let 0.0 and -0.0 pass. *)
let same_bits what a b =
  let first =
    if Array.length a <> Array.length b then Some (-1)
    else
      Seq.find
        (fun i -> not (Int64.equal (Int64.bits_of_float a.(i)) (Int64.bits_of_float b.(i))))
        (Seq.init (Array.length a) Fun.id)
  in
  match first with
  | None -> ()
  | Some i -> Alcotest.failf "%s: first difference at index %d" what i

(* The evaluation kernel against [reference_evaluate] over random walks
   of block toggles (drains, undrains and, on OCS-LITE, rewires): from
   the original state, and on OCS-LITE also from the state with every
   rewire applied.  [Ecmp.evaluate] and [Ecmp.evaluate_rebuild] must
   reproduce the oracle's loads, two-matrix aux loads, stuck and
   delivered volume bit for bit under both splits. *)
let test_evaluate_matches_reference () =
  List.iter
    (fun (label, (sc : Gen.scenario), rewired) ->
      let task = Task.of_scenario sc in
      let ck = Constraint.create ~incremental:false task in
      let rewire (b : Blocks.t) = rewired && Action.affects_wiring b.Blocks.action in
      Array.iter
        (fun (b : Blocks.t) -> if rewire b then Constraint.apply_block ck b.Blocks.id)
        task.Task.blocks;
      let topo = Constraint.overlay ck in
      let u = Topo.universe topo in
      let m = Universe.n_circuits u in
      let layout = sc.Gen.layout in
      let rsws_by_dc = layout.Gen.rsws_by_dc and ebbs = layout.Gen.ebbs in
      let alts = scenario_alts sc in
      let classes =
        List.map
          (fun (d : Demand.t) ->
            let sources = Routes.sources_for ~rsws_by_dc ~ebbs d in
            ( d.Demand.name,
              Routes.compile ~alts u ~rsws_by_dc ~ebbs d,
              sources,
              reference_rows ~alts u ~sources ~hops:(Routes.hops_for d) ))
          (Matrix.generate ~prng:(Kutil.Prng.create ~seed:42)
             ~dcs:layout.Gen.params.Gen.dcs ())
      in
      let scale = snd task.Task.compiled.(0) in
      let scratch = Ecmp.make_scratch u in
      let compare_all step =
        List.iter
          (fun (name, fast, sources, stages) ->
            List.iter
              (fun split ->
                let run eval =
                  let loads = Array.make m 0.0 in
                  let aux = [| (Array.make m 0.0, 0.75); (Array.make m 0.0, 1.5) |] in
                  let stuck, delivered = eval ~aux ~loads in
                  (loads, Array.map fst aux, stuck, delivered)
                in
                let loads', aux', stuck', delivered' =
                  run (fun ~aux ~loads ->
                      let r =
                        reference_evaluate ~scale ~split ~aux topo ~sources ~stages ~loads
                      in
                      (r.Ecmp.stuck, Some r.Ecmp.delivered))
                in
                let check path eval =
                  let loads, aux, stuck, delivered = run eval in
                  let what part =
                    Printf.sprintf "%s step %d %s %s %s: %s" label step name
                      (match split with `Equal -> "equal" | `Capacity_weighted -> "weighted")
                      path part
                  in
                  same_bits (what "loads") loads' loads;
                  Array.iteri (fun x l -> same_bits (what "aux loads") aux'.(x) l) aux;
                  same_bits (what "stuck") [| stuck' |] [| stuck |];
                  Option.iter
                    (fun d -> same_bits (what "delivered") [| Option.get delivered' |] [| d |])
                    delivered
                in
                check "evaluate" (fun ~aux ~loads ->
                    let r = Ecmp.evaluate ~scale ~split ~aux topo scratch fast ~loads in
                    (r.Ecmp.stuck, Some r.Ecmp.delivered));
                check "evaluate_rebuild" (fun ~aux ~loads ->
                    ( Ecmp.evaluate_rebuild ~scale ~split ~aux topo scratch
                        (make_inc u fast) ~loads,
                      None )))
              [ `Equal; `Capacity_weighted ])
          classes
      in
      compare_all 0;
      let n = Array.length task.Task.blocks in
      let applied = Array.map rewire task.Task.blocks in
      let g = Kutil.Prng.create ~seed:11 in
      for step = 1 to min 16 (2 * n) do
        let b = Kutil.Prng.int g n in
        if applied.(b) then Constraint.unapply_block ck b
        else Constraint.apply_block ck b;
        applied.(b) <- not applied.(b);
        compare_all step
      done)
    [
      ("A", Gen.scenario_of_label "A", false);
      ("C-SSW", Gen.build Gen.Ssw_forklift (Gen.params_c ()), false);
      ("C-DMAG", Gen.build Gen.Dmag (Gen.params_c ()), false);
      ("OCS-LITE", Gen.scenario_of_label "OCS-LITE", false);
      ("OCS-LITE rewired", Gen.scenario_of_label "OCS-LITE", true);
    ]

(* A check allocates per class and stage, never per candidate row: one
   full evaluation of every class of C, plain and recording, without and
   with the two-matrix ensemble deposits of the reference test above,
   stays within a small constant times the stage count in minor words
   once the scratch and the incremental records have grown. *)
let test_evaluate_allocation () =
  let task = Task.of_scenario (Gen.scenario_of_label "C") in
  let topo = task.Task.topo in
  let u = Topo.universe topo in
  let m = Universe.n_circuits u in
  let scratch = Ecmp.make_scratch u in
  let loads = Array.make m 0.0 in
  let two = [| (Array.make m 0.0, 0.75); (Array.make m 0.0, 1.5) |] in
  let incs = Array.map (fun (c, _) -> make_inc u c) task.Task.compiled in
  let stages =
    Array.fold_left (fun acc (c, _) -> acc + Ecmp.n_stages c) 0 task.Task.compiled
  in
  let words eval =
    eval ();
    let before = Gc.minor_words () in
    eval ();
    Gc.minor_words () -. before
  in
  let plain aux =
    words (fun () ->
        Array.iter
          (fun (c, scale) -> ignore (Ecmp.evaluate ~scale ~aux topo scratch c ~loads))
          task.Task.compiled)
  in
  let recording aux =
    words (fun () ->
        Array.iteri
          (fun d (_, scale) ->
            ignore (Ecmp.evaluate_rebuild ~scale ~aux topo scratch incs.(d) ~loads))
          task.Task.compiled)
  in
  let bound = float_of_int (16 * stages) in
  List.iter
    (fun (path, w) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words over %d stages (bound %.0f)" path w
           stages bound)
        true (w <= bound))
    [
      ("evaluate", plain [||]);
      ("evaluate_rebuild", recording [||]);
      ("evaluate, two aux matrices", plain two);
      ("evaluate_rebuild, two aux matrices", recording two);
    ]

(* The same contract one layer up: a satisfiability check allocates per
   stage of the task, not per circuit.  The full path is one
   [Constraint.current_ok] on C, whose θ scan reads every circuit; the
   delta path is a C-SSW walk, measured on its second run through the
   same states, once every per-class buffer has grown to fit. *)
let test_check_allocation () =
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let bound task =
    let stages =
      Array.fold_left
        (fun acc (c, _) -> acc + Ecmp.n_stages c)
        0 task.Task.compiled
    in
    (stages, float_of_int (16 * stages))
  in
  let task = Task.of_scenario (Gen.scenario_of_label "C") in
  Alcotest.(check bool) "C checks on the full path" false
    (Task.delta_profitable task);
  let ck = Constraint.create task in
  ignore (Constraint.current_ok ck);
  let stages, cap = bound task in
  let w = words (fun () -> ignore (Constraint.current_ok ck)) in
  Alcotest.(check bool)
    (Printf.sprintf "full check on C: %.0f minor words over %d stages (bound %.0f)"
       w stages cap)
    true (w <= cap);
  let task = Task.of_scenario (Gen.build Gen.Ssw_forklift (Gen.params_c ())) in
  Alcotest.(check bool) "C-SSW checks on the delta layer" true
    (Task.delta_profitable task);
  let ck = Constraint.create task in
  let stages, cap = bound task in
  let walk = List.init (min 12 (Array.length task.Task.blocks)) Fun.id in
  let run measure =
    ignore (Constraint.current_ok ck);
    List.iter
      (fun b ->
        Constraint.apply_block ck b;
        let w = words (fun () -> ignore (Constraint.current_ok ck)) in
        if measure then
          Alcotest.(check bool)
            (Printf.sprintf
               "delta check after block %d on C-SSW: %.0f minor words over %d \
                stages (bound %.0f)"
               b w stages cap)
            true (w <= cap))
      walk;
    List.iter (fun b -> Constraint.unapply_block ck b) (List.rev walk)
  in
  run false;
  run true

(* A fresh delta-layer checker sizes its records once.  Its first check
   allocates, term by term:
   - per row of a class the task groups, one float share and one
     verdict byte: 9/8 of a word;
   - per switch that can enter a grouped stage, an entering volume, a
     flag byte and a 4-byte live-row count: 13/8;
   - per row of any class, at most one verdict byte of the scratch's
     per-stage buffers: 1/8;
   - per circuit, the loads, one over-θ bit and one θ mark: 33/32;
   - per universe switch, the scratch's four per-switch columns, its
     local-id map and the toggle byte: 6, plus per useful set (one per
     grouped stage boundary, and the scratch's for the plain classes,
     at most one per stage) a bit per switch and a few header words;
   - per stage, the headers of its record, queue and buffers: 32.
   The row groupings are the task's, built with it and shared by every
   checker.  No later check here grows a record:
   neither the jump through every
   block nor a walk of single toggles longer than the checker's drift
   interval, whose periodic full rebuild re-records every class.  Record
   arrays over 256 words skip the minor heap, so the first check counts
   minor plus direct major words, read after a full major cycle has
   folded every allocation into the counters; the later checks must
   each stay within a per-stage bound in minor words and together
   allocate nothing on the major heap directly. *)
let test_checker_records_allocated_once () =
  let counters () =
    Gc.full_major ();
    let s = Gc.quick_stat () in
    (Gc.minor_words (), s.Gc.major_words -. s.Gc.promoted_words)
  in
  List.iter
    (fun (label, task) ->
      Alcotest.(check bool) (label ^ " checks on the delta layer") true
        (Task.delta_profitable task);
      let u = Task.universe task in
      let rows = ref 0 and all_rows = ref 0 and stages = ref 0 in
      let locals = ref 0 and boundaries = ref 0 in
      Array.iteri
        (fun d (c, _) ->
          stages := !stages + Ecmp.n_stages c;
          all_rows := !all_rows + Ecmp.stage_circuit_count c;
          match task.Task.groups.(d) with
          | None -> ()
          | Some g ->
              rows := !rows + Ecmp.stage_circuit_count c;
              boundaries := !boundaries + Ecmp.n_stages c + 1;
              let st = Ecmp.make_inc u c g in
              for k = 0 to Ecmp.n_stages c - 1 do
                locals :=
                  !locals + Array.length (Ecmp.recorded st ~stage:k).Ecmp.live_counts
              done)
        task.Task.compiled;
      let ck = Constraint.create task in
      let minor0, major0 = counters () in
      ignore (Constraint.current_ok ck);
      let minor1, major1 = counters () in
      let first = minor1 -. minor0 +. (major1 -. major0) in
      let n = Universe.n_switches u in
      let bound =
        float_of_int
          ((9 * !rows / 8)
          + (13 * !locals / 8)
          + (!all_rows / 8)
          + (33 * Universe.n_circuits u / 32)
          + (6 * n)
          + (((n / 8) + 8) * (!boundaries + !stages))
          + (32 * !stages))
      in
      Alcotest.(check bool)
        (Printf.sprintf
           "%s: first check %.0f words, bound %.0f (%d rows of grouped classes)"
           label first bound !rows)
        true (first <= bound);
      let cap = float_of_int (16 * !stages) in
      let later what =
        let before = Gc.minor_words () in
        ignore (Constraint.current_ok ck);
        let w = Gc.minor_words () -. before in
        if w > cap then
          Alcotest.failf "%s: %s %.0f minor words over %d stages (bound %.0f)"
            label what w !stages cap
      in
      let n = Array.length task.Task.blocks in
      let _, major0 = counters () in
      Array.iteri (fun b _ -> Constraint.apply_block ck b) task.Task.blocks;
      later "the check after every block";
      let applied = Array.make n true in
      let g = Kutil.Prng.create ~seed:3 in
      for step = 1 to 520 do
        let b = Kutil.Prng.int g n in
        if applied.(b) then Constraint.unapply_block ck b
        else Constraint.apply_block ck b;
        applied.(b) <- not applied.(b);
        later (Printf.sprintf "walk check %d" step)
      done;
      let _, major1 = counters () in
      Alcotest.(check (float 0.0))
        (label ^ ": later checks allocate nothing on the major heap")
        0.0 (major1 -. major0))
    [
      ("C-SSW", Task.of_scenario (Gen.build Gen.Ssw_forklift (Gen.params_c ())));
      ( "C-DMAG",
        Task.of_scenario
          (Gen.build Gen.Dmag { (Gen.params_c ()) with Gen.mas = 6 }) );
    ]

(* ---------------------------------------------------------------- *)
(* Matrix *)

let test_matrix_generate () =
  let prng = Kutil.Prng.create ~seed:3 in
  let demands = Matrix.generate ~prng ~dcs:3 () in
  Alcotest.(check int) "3 ew + 3 egress + 3 ingress" 9 (List.length demands);
  Alcotest.check (Alcotest.float 1e-6) "volumes sum to the configured totals"
    1200.0
    (Demand.total_volume demands);
  let single = Matrix.generate ~prng:(Kutil.Prng.create ~seed:4) ~dcs:1 () in
  Alcotest.(check int) "no east-west with one DC" 2 (List.length single)

let test_matrix_determinism () =
  let d1 = Matrix.generate ~prng:(Kutil.Prng.create ~seed:5) ~dcs:2 () in
  let d2 = Matrix.generate ~prng:(Kutil.Prng.create ~seed:5) ~dcs:2 () in
  Alcotest.(check bool) "same seed, same matrix" true (d1 = d2)

let test_calibration_fixpoint () =
  let sc = Gen.scenario_of_label "A" in
  let task = Task.of_scenario ~target_util:0.4 sc in
  let ck = Constraint.create task in
  let s = Constraint.evaluate_current ck in
  Alcotest.check (Alcotest.float 1e-6) "hottest circuit at target" 0.4
    s.Constraint.max_util

(* ---------------------------------------------------------------- *)
(* Forecast *)

let test_forecast_growth () =
  let prng = Kutil.Prng.create ~seed:7 in
  let f = Forecast.create ~weekly_growth:0.1 ~spike_probability:0.0 ~prng () in
  Alcotest.check feq "week 0 is 1.0" 1.0 (Forecast.scale_at f ~week:0 ~class_name:"x");
  Alcotest.check (Alcotest.float 1e-9) "compounds" 1.21
    (Forecast.scale_at f ~week:2 ~class_name:"x");
  Alcotest.check_raises "negative week"
    (Invalid_argument "Forecast.scale_at: negative week") (fun () ->
      ignore (Forecast.scale_at f ~week:(-1) ~class_name:"x"))

let test_forecast_spikes_reproducible () =
  let prng = Kutil.Prng.create ~seed:7 in
  let f =
    Forecast.create ~weekly_growth:0.0 ~spike_probability:0.5
      ~spike_magnitude:1.0 ~prng ()
  in
  let a = Forecast.scale_at f ~week:3 ~class_name:"svc" in
  let b = Forecast.scale_at f ~week:3 ~class_name:"svc" in
  Alcotest.check feq "same query, same answer" a b;
  (* With p=0.5 over many (week, class) keys, both outcomes occur. *)
  let spiked = ref 0 and flat = ref 0 in
  for w = 1 to 40 do
    if Forecast.scale_at f ~week:w ~class_name:"svc" > 1.5 then incr spiked
    else incr flat
  done;
  Alcotest.(check bool) "both outcomes occur" true (!spiked > 0 && !flat > 0)

let test_forecast_apply () =
  let prng = Kutil.Prng.create ~seed:7 in
  let f = Forecast.create ~weekly_growth:0.05 ~spike_probability:0.0 ~prng () in
  let d =
    Demand.make ~name:"d" ~src:(Demand.Rsws_of_dc 0) ~dst:Demand.Backbone
      ~volume:10.0
  in
  match Forecast.apply f ~week:1 [ d ] with
  | [ d' ] -> Alcotest.check (Alcotest.float 1e-9) "grown" 10.5 d'.Demand.volume
  | _ -> Alcotest.fail "one class in, one class out"

let suite =
  ( "traffic",
    [
      Alcotest.test_case "demand construction" `Quick test_demand_make;
      Alcotest.test_case "demand totals" `Quick test_demand_total;
      Alcotest.test_case "ECMP equal split" `Quick test_ecmp_equal_split;
      Alcotest.test_case "ECMP scratch reuse" `Quick test_ecmp_conservation_repeated;
      Alcotest.test_case "ECMP reroutes around drains" `Quick
        test_ecmp_reroutes_around_drain;
      Alcotest.test_case "ECMP avoids dead ends" `Quick
        test_ecmp_usefulness_avoids_dead_end;
      Alcotest.test_case "ECMP detects cuts" `Quick test_ecmp_stuck_when_cut;
      Alcotest.test_case "ECMP ids checked where rows are built" `Quick
        test_ecmp_moved_checks;
      Alcotest.test_case "ECMP scale linearity" `Quick test_ecmp_scale_linearity;
      Alcotest.test_case "ECMP skip carries volume" `Quick test_ecmp_skip_carries;
      Alcotest.test_case "ECMP capacity-weighted split" `Quick
        test_ecmp_weighted_split;
      Alcotest.test_case "ECMP weighted skip carries" `Quick
        test_ecmp_weighted_skip_carries;
      QCheck_alcotest.to_alcotest prop_conservation;
      Alcotest.test_case "route structures" `Quick test_routes_structure;
      Alcotest.test_case "source spreading" `Quick test_routes_sources_spread;
      Alcotest.test_case "route errors" `Quick test_routes_errors;
      Alcotest.test_case "end-to-end delivery on A" `Quick test_end_to_end_delivery;
      Alcotest.test_case "compile matches whole-universe scan" `Slow
        test_compile_matches_reference;
      Alcotest.test_case "compile finds alternative rows off the frontier"
        `Quick test_compile_alt_row_off_frontier;
      Alcotest.test_case "compile asks accept once per switch and hop" `Quick
        test_compile_asks_once;
      Alcotest.test_case "compile allocates its columns, not per row" `Quick
        test_compile_allocation;
      Alcotest.test_case "evaluate matches per-row reference" `Slow
        test_evaluate_matches_reference;
      Alcotest.test_case "evaluation allocates per stage, not per row" `Quick
        test_evaluate_allocation;
      Alcotest.test_case "a check allocates per stage, not per circuit" `Quick
        test_check_allocation;
      Alcotest.test_case "a fresh checker allocates its records once" `Quick
        test_checker_records_allocated_once;
      Alcotest.test_case "matrix generation" `Quick test_matrix_generate;
      Alcotest.test_case "matrix determinism" `Quick test_matrix_determinism;
      Alcotest.test_case "calibration fixpoint" `Quick test_calibration_fixpoint;
      Alcotest.test_case "forecast growth" `Quick test_forecast_growth;
      Alcotest.test_case "forecast spikes reproducible" `Quick
        test_forecast_spikes_reproducible;
      Alcotest.test_case "forecast apply" `Quick test_forecast_apply;
    ] )
