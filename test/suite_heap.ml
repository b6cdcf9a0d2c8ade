(* Unit and property tests for Kutil.Heap. *)

module Heap = Kutil.Heap

let int_heap () = Heap.create ~compare:Int.compare

let test_empty () =
  let h = int_heap () in
  Alcotest.(check int) "length" 0 (Heap.length h);
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "pop" None (Heap.pop h)

let test_push_pop_order () =
  let h = int_heap () in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check int) "length" 5 (Heap.length h);
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 3; 4; 5 ]
    (Heap.to_sorted_list h);
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

let test_pop_exn () =
  let h = int_heap () in
  Alcotest.check_raises "empty pop_exn"
    (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h));
  Heap.push h 7;
  Alcotest.(check int) "pop_exn" 7 (Heap.pop_exn h)

let test_custom_order () =
  let h = Heap.create ~compare:(fun a b -> Int.compare b a) in
  List.iter (Heap.push h) [ 2; 9; 4 ];
  Alcotest.(check (list int)) "max-heap drain" [ 9; 4; 2 ]
    (Heap.to_sorted_list h)

let test_clear () =
  let h = int_heap () in
  List.iter (Heap.push h) [ 1; 2; 3 ];
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h);
  Heap.push h 9;
  Alcotest.(check (option int)) "usable after clear" (Some 9) (Heap.pop h)

let test_of_list () =
  let h = Heap.of_list ~compare:Int.compare [ 3; 1; 2 ] in
  Alcotest.(check (list int)) "of_list drain" [ 1; 2; 3 ]
    (Heap.to_sorted_list h)

let test_fold_unordered () =
  let h = Heap.of_list ~compare:Int.compare [ 4; 2; 6 ] in
  let sum = Heap.fold_unordered ( + ) 0 h in
  Alcotest.(check int) "fold sum" 12 sum;
  Alcotest.(check int) "fold preserves heap" 3 (Heap.length h)

(* Regression: [pop] used to leave the popped (or a shifted) element
   behind in the vacated [data.(size)] slot, pinning it — and everything
   it reaches, e.g. an A* entry's whole rev_types chain — until a future
   push happened to overwrite the slot.  A drained heap must not keep any
   popped payload alive. *)
let test_pop_releases_payloads () =
  let h = Heap.create ~compare:(fun (a, _) (b, _) -> Int.compare a b) in
  let n = 5 in
  let w = Weak.create n in
  (* Build and drain in helper functions so no local variable keeps a
     payload reachable from the stack during the final GC. *)
  let fill () =
    for i = 0 to n - 1 do
      Heap.push h (i, Array.make 64 i)
    done
  in
  let drain () =
    for k = 0 to n - 1 do
      match Heap.pop h with
      | Some (i, payload) ->
          Alcotest.(check int) "sorted drain" k i;
          Weak.set w k (Some payload)
      | None -> Alcotest.fail "heap drained early"
    done
  in
  fill ();
  drain ();
  Gc.full_major ();
  for k = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "payload %d released" k)
      false
      (Option.is_some (Weak.get w k))
  done;
  (* The heap object itself stays alive and usable. *)
  Heap.push h (42, [| 42 |]);
  Alcotest.(check int) "usable after drain" 1 (Heap.length h)

(* Same property mid-stream: after popping some of the elements, the
   popped payloads must already be collectable while the rest stay put. *)
let test_partial_pop_releases_payloads () =
  let h = Heap.create ~compare:(fun (a, _) (b, _) -> Int.compare a b) in
  let w = Weak.create 2 in
  let fill () =
    for i = 0 to 6 do
      Heap.push h (i, Array.make 64 i)
    done
  in
  let take k =
    match Heap.pop h with
    | Some (_, payload) -> Weak.set w k (Some payload)
    | None -> Alcotest.fail "heap drained early"
  in
  fill ();
  take 0;
  take 1;
  Gc.full_major ();
  Alcotest.(check bool) "popped payloads released" true
    (Option.is_none (Weak.get w 0) && Option.is_none (Weak.get w 1));
  Alcotest.(check int) "rest still queued" 5 (Heap.length h);
  Alcotest.(check bool) "next pop correct" true
    (match Heap.pop h with Some (2, _) -> true | _ -> false)

let prop_drain_is_sorted =
  QCheck.Test.make ~count:200 ~name:"heap drains in sorted order"
    QCheck.(list int)
    (fun xs ->
      let h = Heap.of_list ~compare:Int.compare xs in
      Heap.to_sorted_list h = List.sort Int.compare xs)

let prop_interleaved_pops =
  QCheck.Test.make ~count:200
    ~name:"interleaved push/pop returns a global minimum"
    QCheck.(list (pair int bool))
    (fun ops ->
      let h = int_heap () in
      let reference = ref [] in
      List.for_all
        (fun (x, do_pop) ->
          if do_pop then begin
            let expected =
              match List.sort Int.compare !reference with
              | [] -> None
              | m :: _ -> Some m
            in
            let got = Heap.pop h in
            (match got with
            | Some v ->
                let rec remove = function
                  | [] -> []
                  | z :: tl -> if z = v then tl else z :: remove tl
                in
                reference := remove !reference
            | None -> ());
            got = expected
          end
          else begin
            Heap.push h x;
            reference := x :: !reference;
            true
          end)
        ops)

let suite =
  ( "heap",
    [
      Alcotest.test_case "empty heap" `Quick test_empty;
      Alcotest.test_case "push/pop order" `Quick test_push_pop_order;
      Alcotest.test_case "pop_exn" `Quick test_pop_exn;
      Alcotest.test_case "custom comparison" `Quick test_custom_order;
      Alcotest.test_case "clear" `Quick test_clear;
      Alcotest.test_case "of_list" `Quick test_of_list;
      Alcotest.test_case "fold_unordered" `Quick test_fold_unordered;
      Alcotest.test_case "pop releases payloads (drain)" `Quick
        test_pop_releases_payloads;
      Alcotest.test_case "pop releases payloads (partial)" `Quick
        test_partial_pop_releases_payloads;
      QCheck_alcotest.to_alcotest prop_drain_is_sorted;
      QCheck_alcotest.to_alcotest prop_interleaved_pops;
    ] )
