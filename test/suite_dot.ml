(* Tests for the Graphviz exporter. *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec loop i =
    i + n <= h && (String.sub haystack i n = needle || loop (i + 1))
  in
  n = 0 || loop 0

let fixture () =
  let b = Builder.create ~switches:3 ~circuits:2 in
  let r = Builder.add_switch b ~name:"dc0/rsw0" ~role:Switch.RSW ~max_ports:4 () in
  let f = Builder.add_switch b ~name:"dc0/fsw0" ~role:Switch.FSW ~max_ports:4 () in
  let s = Builder.add_switch b ~name:"dc0/ssw0" ~role:Switch.SSW ~max_ports:4 () in
  let c0 = Builder.add_circuit b ~lo:r ~hi:f ~capacity:1.0 () in
  ignore (Builder.add_circuit b ~lo:f ~hi:s ~capacity:1.0 ());
  (Builder.freeze b, f, c0)

let test_structure () =
  let topo, _, _ = fixture () in
  let dot = Dot.to_dot topo in
  Alcotest.(check bool) "digraph wrapper" true
    (contains dot "digraph topology {" && contains dot "}");
  Alcotest.(check bool) "names escaped" true (contains dot "dc0_rsw0");
  Alcotest.(check bool) "edges present" true
    (contains dot "dc0_rsw0 -> dc0_fsw0")

let test_inactive_styling () =
  let topo, f, _ = fixture () in
  Topo.set_switch_active topo f false;
  let dot = Dot.to_dot topo in
  Alcotest.(check bool) "drained switch dashed" true
    (contains dot "style=dashed");
  Alcotest.(check bool) "unusable circuit greyed" true (contains dot "grey80")

let test_role_filter () =
  let topo, _, _ = fixture () in
  let dot = Dot.to_dot ~roles:[ Switch.RSW; Switch.FSW ] topo in
  Alcotest.(check bool) "kept roles" true (contains dot "dc0_rsw0");
  Alcotest.(check bool) "filtered role absent" false (contains dot "dc0_ssw0")

let test_load_coloring () =
  let topo, _, c0 = fixture () in
  let loads = Array.make (Topo.n_circuits topo) 0.0 in
  loads.(c0) <- 0.9;
  let dot = Dot.to_dot ~loads topo in
  Alcotest.(check bool) "hot circuit red" true (contains dot "color=red");
  Alcotest.(check bool) "cool circuit green" true
    (contains dot "color=forestgreen")

let test_truncation () =
  let sc = Gen.scenario_of_label "B" in
  let dot = Dot.to_dot ~max_switches:10 sc.Gen.topo in
  Alcotest.(check bool) "truncation noted" true
    (contains dot "truncated to 10 switches")

let test_write_file () =
  let topo, _, _ = fixture () in
  let path = Filename.temp_file "klotski" ".dot" in
  (match Dot.write_file path topo with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let content = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check bool) "file written" true (contains content "digraph")

let suite =
  ( "dot",
    [
      Alcotest.test_case "document structure" `Quick test_structure;
      Alcotest.test_case "inactive styling" `Quick test_inactive_styling;
      Alcotest.test_case "role filtering" `Quick test_role_filter;
      Alcotest.test_case "load coloring" `Quick test_load_coloring;
      Alcotest.test_case "truncation" `Quick test_truncation;
      Alcotest.test_case "file output" `Quick test_write_file;
    ] )
