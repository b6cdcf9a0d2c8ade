(* Tests for Kutil.Timer budgets and Kutil.Table_fmt rendering. *)

module Timer = Kutil.Timer
module Table_fmt = Kutil.Table_fmt

let test_unlimited () =
  Alcotest.(check bool) "never expires" false
    (Timer.Budget.expired Timer.Budget.unlimited)

let test_budget_expiry () =
  let b = Timer.Budget.of_seconds 1e-9 in
  (* Burn a little CPU so Sys.time advances past the deadline. *)
  let acc = ref 0.0 in
  while not (Timer.Budget.expired b) do
    for i = 1 to 10_000 do
      acc := !acc +. float_of_int i
    done
  done;
  Alcotest.(check bool) "expired" true (Timer.Budget.expired b)

let test_budget_validation () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Budget.of_seconds: non-positive budget") (fun () ->
      ignore (Timer.Budget.of_seconds 0.0));
  (* A NaN deadline would never pass: [now () > nan] is false. *)
  Alcotest.check_raises "NaN"
    (Invalid_argument "Budget.of_seconds: non-positive budget") (fun () ->
      ignore (Timer.Budget.of_seconds Float.nan))

let test_time () =
  let result, elapsed = Timer.time (fun () -> 40 + 2) in
  Alcotest.(check int) "result" 42 result;
  Alcotest.(check bool) "non-negative elapsed" true (elapsed >= 0.0)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec loop i =
    i + n <= h && (String.sub haystack i n = needle || loop (i + 1))
  in
  n = 0 || loop 0

let test_table_basic () =
  let t = Table_fmt.create ~headers:[ "a"; "bb" ] in
  Table_fmt.add_row t [ "x"; "long-cell" ];
  Table_fmt.add_row t [ "y"; "z" ];
  let rendered = Table_fmt.render t in
  Alcotest.(check bool) "contains header and cells" true
    (contains rendered "bb" && contains rendered "long-cell"
   && contains rendered "+")

let test_table_arity () =
  let t = Table_fmt.create ~headers:[ "one" ] in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Table_fmt.add_row: arity mismatch") (fun () ->
      Table_fmt.add_row t [ "a"; "b" ])

let test_table_alignment () =
  let t = Table_fmt.create ~headers:[ "n" ] in
  Table_fmt.add_row t [ "7" ];
  let left = Table_fmt.render ~align:Table_fmt.Left t in
  let right = Table_fmt.render ~align:Table_fmt.Right t in
  Alcotest.(check bool) "alignment changes layout or not" true
    (String.length left = String.length right)

let suite =
  ( "timer+table",
    [
      Alcotest.test_case "unlimited budget" `Quick test_unlimited;
      Alcotest.test_case "budget expiry" `Quick test_budget_expiry;
      Alcotest.test_case "budget validation" `Quick test_budget_validation;
      Alcotest.test_case "time wrapper" `Quick test_time;
      Alcotest.test_case "table rendering" `Quick test_table_basic;
      Alcotest.test_case "table arity" `Quick test_table_arity;
      Alcotest.test_case "table alignment" `Quick test_table_alignment;
    ] )
