module Bitset = Kutil.Bitset

(* The mutable overlay over an immutable [Universe.t]: activity bitsets
   plus the incrementally maintained usable set, usable degrees and
   port-violation counter.  Copying an overlay copies only these words —
   the universe is shared physically, which is what lets every checker
   hold its own overlay cheaply.

   OCS rewiring lives here too: [rewired]/[remap] record the sparse set
   of circuits whose [hi] endpoint currently differs from the as-built
   universe wiring.  The remap holds only non-identity entries, so on
   drain/undrain-only tasks both stay empty and every wiring query is a
   single bitset probe. *)
type t = {
  u : Universe.t;
  switch_active : Bitset.t;
  circuit_active : Bitset.t;
  usable_set : Bitset.t;  (* circuit flag AND both endpoints active *)
  usable_deg : int array;
  mutable port_violations : int;
  rewired : Bitset.t;  (* circuits whose hi endpoint is remapped *)
  remap : (int, int) Hashtbl.t;  (* circuit id -> current hi endpoint *)
}

(* The original state in one pass over the future flags: a future
   switch or circuit starts inactive, a circuit is usable when it and
   both its endpoints are active, and each usable circuit takes a port on
   both endpoints. *)
let of_universe u ~switch_future ~circuit_future =
  let n = Universe.n_switches u and m = Universe.n_circuits u in
  if Bytes.length switch_future <> n || Bytes.length circuit_future <> m then
    invalid_arg "Topo.of_universe: future flags disagree with the universe";
  let switch_active = Bitset.create_full n in
  for i = 0 to n - 1 do
    if Bytes.get switch_future i <> '\000' then Bitset.remove switch_active i
  done;
  let circuit_active = Bitset.create_full m and usable_set = Bitset.create_full m in
  let usable_deg = Array.make n 0 in
  for j = 0 to m - 1 do
    let lo = Universe.endpoint_lo u j and hi = Universe.endpoint_hi u j in
    if Bytes.get circuit_future j <> '\000' then begin
      Bitset.remove circuit_active j;
      Bitset.remove usable_set j
    end
    else if Bytes.get switch_future lo <> '\000' || Bytes.get switch_future hi <> '\000'
    then Bitset.remove usable_set j
    else begin
      usable_deg.(lo) <- usable_deg.(lo) + 1;
      usable_deg.(hi) <- usable_deg.(hi) + 1
    end
  done;
  let port_violations = ref 0 in
  for i = 0 to n - 1 do
    if usable_deg.(i) > Universe.max_ports u i then incr port_violations
  done;
  {
    u;
    switch_active;
    circuit_active;
    usable_set;
    usable_deg;
    port_violations = !port_violations;
    rewired = Bitset.create m;
    remap = Hashtbl.create 8;
  }

let universe t = t.u

let copy t =
  {
    t with
    switch_active = Bitset.copy t.switch_active;
    circuit_active = Bitset.copy t.circuit_active;
    usable_set = Bitset.copy t.usable_set;
    usable_deg = Array.copy t.usable_deg;
    rewired = Bitset.copy t.rewired;
    remap = Hashtbl.copy t.remap;
  }

let n_switches t = Universe.n_switches t.u
let n_circuits t = Universe.n_circuits t.u
let switch t i = Universe.switch t.u i
let circuit t j = Universe.circuit t.u j
let switches t = Universe.switches t.u
let circuits t = Universe.circuits t.u

(* Flat hot-path pass-throughs: no record views, no array allocation.
   [endpoint_hi] reports the *current* wiring — the remap when the
   circuit is rewired, the universe otherwise — so every overlay
   consumer (usability, ports, maxflow, reachability) sees moved
   endpoints without knowing about the remap. *)
let capacity t j = Universe.capacity t.u j
let endpoint_lo t j = Universe.endpoint_lo t.u j

let endpoint_hi t j =
  if Bitset.mem t.rewired j then Hashtbl.find t.remap j
  else Universe.endpoint_hi t.u j

let up_degree t s = Universe.up_degree t.u s
let iter_up t s ~f = Universe.iter_up t.u s ~f

let switch_active t i = Bitset.mem t.switch_active i
let circuit_active t j = Bitset.mem t.circuit_active j

let usable t j = Bitset.mem t.usable_set j

let circuit_rewired t j = Bitset.mem t.rewired j
let rewired_count t = Hashtbl.length t.remap

(* The rewired circuits whose current hi endpoint is [s], in circuit-id
   order.  They are absent from [s]'s as-built adjacency, so every
   incidence walk adds them.  O(1) while nothing is rewired (the remap is
   empty on drain/undrain-only tasks), O(|C|/8 + rewired) otherwise. *)
let iter_rewired_onto t s ~f =
  if Hashtbl.length t.remap > 0 then
    Bitset.iter (fun j -> if Hashtbl.find t.remap j = s then f j) t.rewired

(* Does circuit [j]'s current wiring match the [alt] a routing candidate
   was compiled for?  [alt = -1] means the as-built wiring.  On tasks
   without rewires the bitset is empty, so the as-built probe is one
   word read and the predicate is constantly [true] for base
   candidates — drain/undrain-only behaviour is bit-identical. *)
let wiring_matches t j alt =
  if alt < 0 then not (Bitset.mem t.rewired j)
  else Bitset.mem t.rewired j && Hashtbl.find t.remap j = alt

let usable_wired t j alt = Bitset.mem t.usable_set j && wiring_matches t j alt

(* One backward-sweep step over a stage's as-built rows, one call per
   stage and one fused pass in [Bitset]: such a row is live iff its
   circuit is usable and not rewired ([usable_wired] at [-1]) and its
   next switch useful.  An alternative row is left not live, for the
   caller to probe with [usable_wired] once a circuit is rewired. *)
let sweep_rows t ~circuits ~alt_hi ~nexts ~prevs ~useful ~into live =
  let rewired = if Hashtbl.length t.remap > 0 then Some t.rewired else None in
  Bitset.sweep_rows ~usable:t.usable_set ~rewired ~useful ~into ~circuits
    ~alt_hi ~nexts ~prevs live

(* Adjust the usable degree of [s] by [delta], keeping the violation count
   in sync with the switch's port limit crossing. *)
let bump_degree t s delta =
  let limit = Universe.max_ports t.u s in
  let before = t.usable_deg.(s) in
  let after = before + delta in
  t.usable_deg.(s) <- after;
  if before <= limit && after > limit then
    t.port_violations <- t.port_violations + 1
  else if before > limit && after <= limit then
    t.port_violations <- t.port_violations - 1

(* Port accounting follows the wire: the hi-side bump lands on the
   *current* endpoint, so a rewired circuit consumes a port on its new
   switch and frees one on the as-built switch (Eq. 6 moves with it). *)
let mark_usable t j present =
  let delta = if present then 1 else -1 in
  Bitset.set t.usable_set j present;
  bump_degree t (Universe.endpoint_lo t.u j) delta;
  bump_degree t (endpoint_hi t j) delta

let set_circuit_active t j active =
  if Bitset.mem t.circuit_active j <> active then begin
    let endpoints_up =
      Bitset.mem t.switch_active (Universe.endpoint_lo t.u j)
      && Bitset.mem t.switch_active (endpoint_hi t j)
    in
    Bitset.set t.circuit_active j active;
    if endpoints_up then mark_usable t j active
  end

let set_switch_active t i active =
  if Bitset.mem t.switch_active i <> active then begin
    (* A circuit's usability flips with this toggle iff the circuit flag,
       the *other* current endpoint, and [i]'s membership in the current
       wiring all hold.  Universe adjacency lists the as-built incidence,
       so (a) skip circuits whose hi has been rewired away from [i], and
       (b) additionally visit the (sparse, id-ordered) rewired circuits
       that currently land on [i] — those are never in [i]'s as-built
       lists because the remap holds only non-identity entries. *)
    let affect j =
      if Bitset.mem t.circuit_active j then begin
        let lo = Universe.endpoint_lo t.u j in
        let hi = endpoint_hi t j in
        if lo = i || hi = i then begin
          let other = if lo = i then hi else lo in
          if Bitset.mem t.switch_active other then mark_usable t j active
        end
      end
    in
    Bitset.set t.switch_active i active;
    Universe.iter_incident t.u i ~f:affect;
    iter_rewired_onto t i ~f:affect
  end

(* Retarget circuit [j]'s hi endpoint: [Some h] rewires it to [h],
   [None] restores the as-built wiring.  The usable bookkeeping is
   un-marked under the old wiring and re-marked under the new one, so
   degrees, port violations and the usable set move atomically with the
   wire — the OCS flip has no transient. *)
let set_circuit_hi t j target =
  let as_built = Universe.endpoint_hi t.u j in
  let new_hi = match target with Some h -> h | None -> as_built in
  if endpoint_hi t j <> new_hi then begin
    let was_usable = Bitset.mem t.usable_set j in
    if was_usable then mark_usable t j false;
    if new_hi = as_built then begin
      Bitset.remove t.rewired j;
      Hashtbl.remove t.remap j
    end
    else begin
      Bitset.add t.rewired j;
      Hashtbl.replace t.remap j new_hi
    end;
    let now_usable =
      Bitset.mem t.circuit_active j
      && Bitset.mem t.switch_active (Universe.endpoint_lo t.u j)
      && Bitset.mem t.switch_active new_hi
    in
    if now_usable then mark_usable t j true
  end

let active_switch_count t = Bitset.cardinal t.switch_active
let active_circuit_count t = Bitset.cardinal t.circuit_active
let usable_degree t s = t.usable_deg.(s)
let ports_ok t = t.port_violations = 0
let port_violation_count t = t.port_violations

(* Load scans over the usable set: one call into [Universe], which owns
   the capacities. *)
let theta_ok t loads ~theta =
  Universe.theta_ok t.u ~usable:t.usable_set loads ~theta

let min_residual t loads ~theta =
  Universe.min_residual t.u ~usable:t.usable_set loads ~theta

let hottest t loads top_j top_u =
  Universe.hottest t.u ~usable:t.usable_set loads top_j top_u

let funneling_ok t loads circuits ~phi ~theta =
  Universe.funneling_ok t.u ~usable:t.usable_set loads circuits ~phi ~theta

let theta_count t loads ~theta ~over =
  Universe.theta_count t.u ~usable:t.usable_set loads ~theta ~over

let theta_rejudge t ~marks ~loads ~over ~n_over ~theta =
  Universe.theta_rejudge t.u ~usable:t.usable_set ~marks ~loads ~over ~n_over ~theta

(* Whole 8-byte words, so [Universe.theta_rejudge] reads every byte as
   part of one. *)
let circuit_marks t = Bytes.make ((n_circuits t + 63) / 64 * 8) '\000'

(* A toggled switch flips the usability of its as-built incident
   circuits that are not rewired away, and of the circuits rewired onto
   it, which its as-built adjacency does not list; marking every
   as-built one is a superset of the first.  A toggled circuit (its
   activity or its wiring) is marked itself. *)
let set_mark marks j =
  let b = j lsr 3 in
  Bytes.set marks b (Char.chr (Char.code (Bytes.get marks b) lor (1 lsl (j land 7))))

let mark_touched t marks ~switches ~circuits =
  for x = 0 to Array.length circuits - 1 do
    set_mark marks circuits.(x)
  done;
  for x = 0 to Array.length switches - 1 do
    let s = switches.(x) in
    Universe.mark_incident t.u marks s;
    if Hashtbl.length t.remap > 0 then iter_rewired_onto t s ~f:(set_mark marks)
  done

let usable_capacity_between t ra rb =
  (* Roles map one-to-one onto ranks and circuits always run lower→higher
     rank, so the either-order role test collapses to one rank-pair tag. *)
  let ra = Switch.rank ra and rb = Switch.rank rb in
  let pair = (min ra rb * 16) + max ra rb in
  let total = ref 0.0 in
  for j = 0 to Universe.n_circuits t.u - 1 do
    if Universe.rank_pair t.u j = pair && usable t j then
      total := !total +. Universe.capacity t.u j
  done;
  !total

let reachable t ~from =
  let n = Universe.n_switches t.u in
  let seen = Bitset.create n in
  let queue = Queue.create () in
  let enqueue s =
    if Bitset.mem t.switch_active s && not (Bitset.mem seen s) then begin
      Bitset.add seen s;
      Queue.add s queue
    end
  in
  List.iter enqueue from;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    (* Traverse the *current* wiring: skip as-built circuits rewired
       away from [s], and also cross the rewired circuits landing on
       [s], which [s]'s as-built adjacency does not list. *)
    let visit j =
      if usable t j then begin
        let lo = Universe.endpoint_lo t.u j in
        let hi = endpoint_hi t j in
        if lo = s then enqueue hi else if hi = s then enqueue lo
      end
    in
    Universe.iter_incident t.u s ~f:visit;
    iter_rewired_onto t s ~f:visit
  done;
  seen
