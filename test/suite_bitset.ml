(* Tests for Kutil.Bitset, including a property check against a reference
   integer-set implementation. *)

module Bitset = Kutil.Bitset
module Col = Kutil.Col
module Iset = Set.Make (Int)

let test_basic () =
  let b = Bitset.create 10 in
  Alcotest.(check int) "empty" 0 (Bitset.cardinal b);
  Bitset.add b 3;
  Bitset.add b 3;
  Bitset.add b 9;
  Alcotest.(check bool) "mem 3" true (Bitset.mem b 3);
  Alcotest.(check bool) "mem 4" false (Bitset.mem b 4);
  Alcotest.(check int) "cardinal" 2 (Bitset.cardinal b);
  Bitset.remove b 3;
  Bitset.remove b 3;
  Alcotest.(check bool) "removed" false (Bitset.mem b 3);
  Alcotest.(check int) "cardinal after remove" 1 (Bitset.cardinal b)

let test_bounds () =
  let b = Bitset.create 8 in
  Alcotest.check_raises "mem out of range"
    (Invalid_argument "Bitset: index out of range") (fun () ->
      ignore (Bitset.mem b 8));
  Alcotest.check_raises "negative"
    (Invalid_argument "Bitset: index out of range") (fun () ->
      Bitset.add b (-1));
  let usable = Bitset.create 8 and useful = Bitset.create_full 8 in
  Bitset.add usable 3;
  Bitset.add usable 5;
  Bitset.add b 3;
  let col ?(bound = 8) ids = Col.make ~what:"row" ~bound ids in
  (* Endpoint columns, indexed by circuit: circuit [j] runs from
     [prevs.(j)] to [nexts.(j)]. *)
  let nexts = col [| 1; 1; 1; 1; 7; 0; 1; 1 |]
  and prevs = col [| 2; 2; 2; 6; 6; 2; 2; 2 |] in
  let sweep ?(live = Bytes.make 2 '\000') ?rewired ?(alt_hi = [||])
      ?(nexts = nexts) ?(prevs = prevs) circuits =
    Bitset.sweep_rows ~usable ~rewired ~useful ~into:b ~circuits ~alt_hi ~nexts
      ~prevs live
  in
  (* [sweep_rows] probes without a range check, so an out-of-range row
     or endpoint never reaches it: the column refuses it when it is
     built. *)
  Alcotest.check_raises "sweep_rows circuit row out of range"
    (Invalid_argument "row 8 out of range [0, 8)") (fun () ->
      ignore (col [| 3; 8 |]));
  Alcotest.check_raises "sweep_rows next endpoint out of range"
    (Invalid_argument "row -1 out of range [0, 8)") (fun () ->
      ignore (col [| 1; -1 |]));
  Alcotest.check_raises "sweep_rows prev endpoint out of range"
    (Invalid_argument "row 9 out of range [0, 8)") (fun () ->
      ignore (col [| 2; 9 |]));
  (* A column proved against a larger bound than its set holds, an
     endpoint column shorter than the circuits' bound, or [live] shorter
     than the rows, is refused once per call, before any row is
     touched. *)
  let too_big = Invalid_argument "Bitset.sweep_rows: a column's bound exceeds its set" in
  Alcotest.check_raises "sweep_rows circuit bound past usable" too_big
    (fun () -> sweep (col ~bound:9 [| 3; 3 |]));
  Alcotest.check_raises "sweep_rows next bound past useful" too_big (fun () ->
      sweep ~nexts:(col ~bound:9 (Array.make 8 1)) (col [| 3; 3 |]));
  Alcotest.check_raises "sweep_rows prev bound past into" too_big (fun () ->
      sweep ~prevs:(col ~bound:9 (Array.make 8 2)) (col [| 3; 3 |]));
  let too_short =
    Invalid_argument
      "Bitset.sweep_rows: an endpoint column is shorter than the circuits' bound"
  in
  Alcotest.check_raises "sweep_rows nexts shorter than the circuits" too_short
    (fun () -> sweep ~nexts:(col (Array.make 7 1)) (col [| 3; 3 |]));
  Alcotest.check_raises "sweep_rows prevs shorter than the circuits" too_short
    (fun () -> sweep ~prevs:(col (Array.make 7 2)) (col [| 3; 3 |]));
  Alcotest.check_raises "sweep_rows live shorter than the rows"
    (Invalid_argument "Bitset.sweep_rows: [live] is shorter than the rows")
    (fun () -> sweep ~live:(Bytes.make 1 '\000') (col [| 3; 3 |]));
  Alcotest.check_raises "sweep_rows circuit bound past rewired" too_big
    (fun () -> sweep ~rewired:(Bitset.create 7) (col [| 3; 3 |]));
  Alcotest.check_raises "sweep_rows alt_hi neither empty nor per row"
    (Invalid_argument
       "Bitset.sweep_rows: [alt_hi] is neither empty nor one entry per row")
    (fun () -> sweep ~alt_hi:[| -1 |] (col [| 3; 3 |]));
  Alcotest.(check (list int)) "refused sweeps added nothing" [ 3 ]
    (Bitset.to_list b);
  (* A row whose circuit is not usable, or whose next is not useful,
     adds nothing; a live row adds its prev. *)
  Bitset.remove useful 1;
  let live = Bytes.make 3 '\007' in
  sweep ~live (col [| 4; 3; 5 |]);
  Alcotest.(check (list int)) "dead rows add nothing" [ 2; 3 ] (Bitset.to_list b);
  Alcotest.(check string) "row verdicts" "\000\000\001" (Bytes.to_string live);
  (* An alternative row, or a row over a rewired circuit, is left not
     live even when its circuit is usable and its next useful. *)
  Bitset.clear b;
  Bitset.add useful 1;
  let rewired = Bitset.create 8 in
  Bitset.add rewired 3;
  let live = Bytes.make 3 '\007' in
  sweep ~live ~alt_hi:[| -1; 6; -1 |] (col [| 5; 5; 3 |]);
  Alcotest.(check (list int)) "alternative row adds nothing" [ 2; 6 ]
    (Bitset.to_list b);
  Alcotest.(check string) "alternative verdicts" "\001\000\001"
    (Bytes.to_string live);
  Bitset.clear b;
  sweep ~live ~rewired (col [| 5; 3; 5 |]);
  Alcotest.(check (list int)) "rewired circuit adds nothing" [ 2 ]
    (Bitset.to_list b);
  Alcotest.(check string) "rewired verdicts" "\001\000\001"
    (Bytes.to_string live)

(* [Col.make] checks every entry once, against [0, bound). *)
let test_col_make () =
  let c = Col.make ~what:"id" ~bound:5 [| 0; 4; 2 |] in
  Alcotest.(check int) "bound" 5 c.Col.bound;
  Alcotest.(check (array int)) "ids kept" [| 0; 4; 2 |] c.Col.ids;
  Alcotest.(check int) "an empty column at bound 0" 0
    (Array.length (Col.make ~what:"id" ~bound:0 [||]).Col.ids);
  Alcotest.check_raises "an entry at the bound"
    (Invalid_argument "id 5 out of range [0, 5)") (fun () ->
      ignore (Col.make ~what:"id" ~bound:5 [| 0; 5 |]));
  Alcotest.check_raises "any entry at bound 0"
    (Invalid_argument "id 0 out of range [0, 0)") (fun () ->
      ignore (Col.make ~what:"id" ~bound:0 [| 0 |]));
  Alcotest.check_raises "the first bad entry is named"
    (Invalid_argument "id -3 out of range [0, 5)") (fun () ->
      ignore (Col.make ~what:"id" ~bound:5 [| 1; -3; 7 |]))

let test_full_clear () =
  let b = Bitset.create_full 17 in
  Alcotest.(check int) "full cardinal" 17 (Bitset.cardinal b);
  Alcotest.(check bool) "mem 16" true (Bitset.mem b 16);
  Bitset.clear b;
  Alcotest.(check int) "cleared" 0 (Bitset.cardinal b);
  Bitset.fill b;
  Alcotest.(check int) "refilled" 17 (Bitset.cardinal b)

let test_copy () =
  let a = Bitset.create 5 in
  Bitset.add a 2;
  let b = Bitset.copy a in
  Bitset.add b 4;
  Alcotest.(check bool) "copy has 2" true (Bitset.mem b 2);
  Alcotest.(check bool) "original untouched" false (Bitset.mem a 4)

let test_iter_to_list () =
  let b = Bitset.create 20 in
  List.iter (Bitset.add b) [ 17; 2; 9 ];
  Alcotest.(check (list int)) "sorted members" [ 2; 9; 17 ] (Bitset.to_list b);
  let acc = ref [] in
  Bitset.iter (fun i -> acc := i :: !acc) b;
  Alcotest.(check (list int)) "iter order" [ 17; 9; 2 ] !acc

let test_set_equal () =
  let a = Bitset.create 9 and b = Bitset.create 9 in
  Bitset.set a 5 true;
  Bitset.set b 5 true;
  Alcotest.(check bool) "equal" true (Bitset.equal a b);
  Bitset.set b 5 false;
  Alcotest.(check bool) "unequal" false (Bitset.equal a b);
  Alcotest.(check bool) "different capacity" false
    (Bitset.equal a (Bitset.create 10))

let prop_matches_reference =
  (* Random op sequences agree with Set.Make(Int). *)
  QCheck.Test.make ~count:300 ~name:"bitset matches reference set"
    QCheck.(list (pair (int_bound 63) bool))
    (fun ops ->
      let b = Bitset.create 64 in
      let reference = ref Iset.empty in
      List.iter
        (fun (i, add) ->
          if add then begin
            Bitset.add b i;
            reference := Iset.add i !reference
          end
          else begin
            Bitset.remove b i;
            reference := Iset.remove i !reference
          end)
        ops;
      Bitset.to_list b = Iset.elements !reference
      && Bitset.cardinal b = Iset.cardinal !reference)

(* Every observer against a reference set over capacity [n]: iteration
   in increasing order and below [n], cardinality, and byte-level
   equality with a set built element by element (which catches a bulk
   operation leaking bits into the padding of the last byte). *)
let agrees b n reference =
  let seen = ref [] in
  Bitset.iter (fun i -> seen := i :: !seen) b;
  let iterated = List.rev !seen and expected = Iset.elements reference in
  let rebuilt = Bitset.create n in
  Iset.iter (Bitset.add rebuilt) reference;
  List.equal Int.equal iterated expected
  && List.equal Int.equal (Bitset.to_list b) expected
  && List.for_all (fun i -> i < n) iterated
  && Bitset.cardinal b = Iset.cardinal reference
  && Bitset.equal b rebuilt
  && Bitset.equal rebuilt b

let test_full_every_capacity () =
  for n = 0 to 300 do
    let full = Bitset.create_full n in
    let all = Iset.of_list (List.init n Fun.id) in
    Alcotest.(check bool) (Printf.sprintf "create_full %d" n) true
      (agrees full n all);
    let refilled = Bitset.create n in
    Bitset.fill refilled;
    Alcotest.(check bool) (Printf.sprintf "fill %d" n) true
      (agrees refilled n all)
  done

(* A row array and a row mask derived from [i]: up to 11 rows in range
   (none when [n = 0]), mask bytes of varying values, and two trailing
   bytes past the rows that the sweep must not touch. *)
let rows_and_mask n i =
  let len = if n = 0 then 0 else i mod 12 in
  let rows = Array.init len (fun r -> ((i * 7) + (13 * r)) mod n) in
  let mask =
    Bytes.init (len + 2) (fun r ->
        if r >= len then '\007'
        else Char.chr (((i lsr r) land 1) * (1 + (i mod 255))))
  in
  (rows, mask)

let prop_bulk_ops_any_capacity =
  (* Capacities 0..300, most not a multiple of 8; ops are add/remove of
     an index reduced mod n, fill, clear, a fresh create_full, or the
     fused row sweep, which must do what per-index [mem]/[add] do. *)
  QCheck.Test.make ~count:500 ~name:"bulk ops match reference at any capacity"
    QCheck.(
      pair (int_bound 300) (list (pair (int_bound 10) (int_bound 299))))
    (fun (n, ops) ->
      let b = ref (Bitset.create n) and reference = ref Iset.empty in
      let all = Iset.of_list (List.init n Fun.id) in
      List.for_all
        (fun (op, i) ->
          let kernel_ok =
            match op with
            | 0 | 1 | 2 | 3 when n > 0 ->
                Bitset.add !b (i mod n);
                reference := Iset.add (i mod n) !reference;
                true
            | 4 | 5 | 6 when n > 0 ->
                Bitset.remove !b (i mod n);
                reference := Iset.remove (i mod n) !reference;
                true
            | 7 ->
                Bitset.fill !b;
                reference := all;
                true
            | 8 ->
                Bitset.clear !b;
                reference := Iset.empty;
                true
            | 9 ->
                b := Bitset.create_full n;
                reference := all;
                true
            | 10 ->
                (* The fused sweep: row [r] runs over circuit [j] from
                   [prevs.(j)] to [nexts.(j)], and is live when it is
                   not an alternative, [rewired] does not hold [j],
                   [usable] holds [j] and [useful] its next; a live row
                   adds its prev to the set under test.  The mask bytes
                   start out arbitrary and every row's byte is
                   overwritten.  Bit 0 of [i] picks alternative rows,
                   bit 1 a rewired set. *)
                let circuits, live = rows_and_mask n i in
                let alt_hi =
                  if i land 1 = 0 then [||]
                  else Array.init (Array.length circuits) (fun r -> (r mod 3) - 1)
                in
                let rewired =
                  if i land 2 = 0 then None
                  else Some (Bitset.create n)
                in
                Option.iter
                  (fun rw -> for j = 0 to n - 1 do if (j + i) mod 5 = 0 then Bitset.add rw j done)
                  rewired;
                let nexts = Array.init n (fun j -> ((5 * j) + 1) mod n) in
                let prevs = Array.init n (fun j -> ((3 * j) + i) mod n) in
                let usable = Bitset.create n and useful = Bitset.create n in
                for j = 0 to n - 1 do
                  if (j + i) mod 3 <> 0 then Bitset.add usable j;
                  if ((7 * j) + i) mod 4 <> 0 then Bitset.add useful j
                done;
                let expected_live = Bytes.copy live in
                let expected = Bitset.copy !b in
                Array.iteri
                  (fun r j ->
                    let is_live =
                      (Array.length alt_hi = 0 || alt_hi.(r) < 0)
                      && (match rewired with
                         | Some rw -> not (Bitset.mem rw j)
                         | None -> true)
                      && Bitset.mem usable j && Bitset.mem useful nexts.(j)
                    in
                    Bytes.set expected_live r (if is_live then '\001' else '\000');
                    if is_live then begin
                      Bitset.add expected prevs.(j);
                      reference := Iset.add prevs.(j) !reference
                    end)
                  circuits;
                let col = Col.make ~what:"row" ~bound:n in
                Bitset.sweep_rows ~usable ~rewired ~useful ~into:!b
                  ~circuits:(col circuits) ~alt_hi ~nexts:(col nexts)
                  ~prevs:(col prevs) live;
                Bitset.equal !b expected && Bytes.equal live expected_live
            | _ -> true
          in
          kernel_ok && agrees !b n !reference)
        ops)

let suite =
  ( "bitset",
    [
      Alcotest.test_case "basic membership" `Quick test_basic;
      Alcotest.test_case "bounds checking" `Quick test_bounds;
      Alcotest.test_case "validated columns" `Quick test_col_make;
      Alcotest.test_case "full and clear" `Quick test_full_clear;
      Alcotest.test_case "copy independence" `Quick test_copy;
      Alcotest.test_case "iter and to_list" `Quick test_iter_to_list;
      Alcotest.test_case "set and equal" `Quick test_set_equal;
      QCheck_alcotest.to_alcotest prop_matches_reference;
      Alcotest.test_case "full at every capacity" `Quick
        test_full_every_capacity;
      QCheck_alcotest.to_alcotest prop_bulk_ops_any_capacity;
    ] )
