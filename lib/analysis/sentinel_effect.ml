(* The effect lattice klotski-sentinel infers for every function in the
   loaded call graph.  A value is a point in the product lattice of six
   independent booleans; [bottom] ("pure") means the analyzer found no
   effect at all.  Joins are component-wise, so the fixpoint below is a
   standard monotone iteration that terminates after at most six lifts
   per strongly connected component.

     pure            — no observable effect
     reads-mutable   — reads mutable storage (fields, refs, tables)
     writes-mutable  — mutates caller-supplied or locally-escaping state
     writes-shared   — unguarded write to module-level (domain-shared) state
     nondeterministic— consults clocks, PRNGs, hash layout or domain identity
     io              — writes to channels / terminal / file system *)

type t = {
  reads_mut : bool;
  writes_own : bool;
  writes_shared : bool;
  nondet : bool;
  io : bool;
  float_arith : bool;  (* performs float arithmetic somewhere in the body *)
}

let bottom =
  {
    reads_mut = false;
    writes_own = false;
    writes_shared = false;
    nondet = false;
    io = false;
    float_arith = false;
  }

let join a b =
  {
    reads_mut = a.reads_mut || b.reads_mut;
    writes_own = a.writes_own || b.writes_own;
    writes_shared = a.writes_shared || b.writes_shared;
    nondet = a.nondet || b.nondet;
    io = a.io || b.io;
    float_arith = a.float_arith || b.float_arith;
  }

let deterministic e = not e.nondet

let to_string e =
  let tags =
    (if e.writes_shared then [ "writes-shared" ] else [])
    @ (if e.writes_own then [ "writes-mutable" ] else [])
    @ (if e.reads_mut then [ "reads-mutable" ] else [])
    @ (if e.nondet then [ "nondeterministic" ] else [])
    @ (if e.io then [ "io" ] else [])
    @ if e.float_arith then [ "float" ] else []
  in
  match tags with [] -> "pure" | tags -> String.concat "," tags

(* ---------------------------------------------------------------- *)
(* Interprocedural solver.

   Nodes are function keys; [direct] is the effect a body exhibits on
   its own (builtin primitives it touches), [calls] the keys of known
   callees.  Tarjan's algorithm emits strongly connected components in
   reverse topological order of the condensation, so by the time a
   component is emitted every callee outside it is already solved; the
   effect of a component is then simply the join of its members' direct
   effects with their external callees' solved effects — mutual
   recursion inside the component cannot add anything beyond that
   join, so no per-component iteration is needed. *)

let solve ~nodes ~direct ~calls =
  let n = List.length nodes in
  let index = Hashtbl.create (2 * n) in
  List.iteri (fun i k -> Hashtbl.replace index k i) nodes;
  let key = Array.of_list nodes in
  let adj =
    Array.map
      (fun k ->
        List.filter_map (fun c -> Hashtbl.find_opt index c) (calls k))
      key
  in
  let result = Hashtbl.create (2 * n) in
  (* Tarjan (recursive: call graphs here are a few hundred nodes deep at
     worst, far below any stack limit). *)
  let idx = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let rec strongconnect v =
    idx.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if idx.(w) < 0 then begin
          strongconnect w;
          if low.(w) < low.(v) then low.(v) <- low.(w)
        end
        else if on_stack.(w) && idx.(w) < low.(v) then low.(v) <- idx.(w))
      adj.(v);
    if low.(v) = idx.(v) then begin
      (* Pop the component rooted at [v]. *)
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      let members = pop [] in
      let eff =
        List.fold_left
          (fun acc w ->
            let acc = join acc (direct key.(w)) in
            List.fold_left
              (fun acc x ->
                match Hashtbl.find_opt result key.(x) with
                | Some e -> join acc e
                | None -> acc (* member of this same component *))
              acc adj.(w))
          bottom members
      in
      List.iter (fun w -> Hashtbl.replace result key.(w) eff) members
    end
  in
  for v = 0 to n - 1 do
    if idx.(v) < 0 then strongconnect v
  done;
  result
