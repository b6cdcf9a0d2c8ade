type block = { members : int list; role : Switch.role; generation : int }

(* The equivalence signature of a switch: its role, generation and the
   sorted list of (neighbor id, capacity) over every incident circuit of
   the universe.  Switches with equal signatures connect to the same hosts
   with the same capacities, hence are interchangeable in any plan. *)
(* Explicit comparators (R1): signatures and blocks carry ints and
   floats, where polymorphic compare would walk boxed floats (and break
   the moment a non-comparable field is added).  Orderings match the
   old polymorphic ones bit for bit. *)
let neighbor_compare (sa, ca) (sb, cb) =
  let c = Int.compare sa sb in
  if c <> 0 then c else Float.compare ca cb

let signature u s =
  let sw = Universe.switch u s in
  let neighbors = ref [] in
  let note j =
    neighbors := (Universe.other_endpoint u j s, Universe.capacity u j)
                 :: !neighbors
  in
  Universe.iter_incident u s ~f:note;
  let sorted = List.sort neighbor_compare !neighbors in
  (sw.Switch.role, sw.Switch.generation, sorted)

let blocks ?(pinned = []) u ~scope =
  (* Pinned switches are endpoints of a wiring change (OCS rewiring): two
     states that differ in where a circuit lands are not interchangeable
     even when the as-built signatures agree, so each pinned switch gets
     a singleton block.  Salting the key with the switch's own id keeps
     one code path and leaves everything else merged as before. *)
  let pinned_set = Hashtbl.create (List.length pinned * 2 + 1) in
  List.iter (fun s -> Hashtbl.replace pinned_set s ()) pinned;
  let table = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let role, generation, neighbors = signature u s in
      let salt = if Hashtbl.mem pinned_set s then s else -1 in
      let key = (role, generation, salt, neighbors) in
      let previous =
        match Hashtbl.find_opt table key with Some l -> l | None -> []
      in
      Hashtbl.replace table key (s :: previous))
    scope;
  let result =
    Hashtbl.fold
      (fun (role, generation, _, _) members acc ->
        { members = List.sort Int.compare members; role; generation } :: acc)
      table []
  in
  List.sort
    (fun a b ->
      match (a.members, b.members) with
      | x :: _, y :: _ -> Int.compare x y
      | _ -> 0 (* blocks are never empty by construction *))
    result

let max_block_size bs =
  List.fold_left (fun acc b -> max acc (List.length b.members)) 0 bs
