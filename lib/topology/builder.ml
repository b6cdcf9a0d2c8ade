(* Streams declarations straight into growable flat arrays — the same
   packed layout [Universe.create_packed] freezes — so building an
   F-scale topology (~1M circuits) allocates no per-circuit records and
   no intermediate lists.  Ranks and future flags live in byte buffers;
   amortized doubling keeps appends O(1). *)

type t = {
  mutable sws : Switch.t array;  (* slots [0, n_switches) are valid *)
  mutable srank : Bytes.t;  (* switch id -> Switch.rank (fits a byte) *)
  mutable sfuture : Bytes.t;  (* switch id -> 0/1 future flag *)
  mutable n_switches : int;
  mutable ep_lo : int array;
  mutable ep_hi : int array;
  mutable cap : float array;
  mutable cfuture : Bytes.t;  (* circuit id -> 0/1 future flag *)
  mutable n_circuits : int;
  names : (string, unit) Hashtbl.t;
}

let dummy_switch =
  Switch.make ~id:(-1) ~name:"" ~role:Switch.RSW ~max_ports:0 ()

let create () =
  {
    sws = Array.make 64 dummy_switch;
    srank = Bytes.create 64;
    sfuture = Bytes.create 64;
    n_switches = 0;
    ep_lo = Array.make 64 0;
    ep_hi = Array.make 64 0;
    cap = Array.make 64 0.0;
    cfuture = Bytes.create 64;
    n_circuits = 0;
    names = Hashtbl.create 64;
  }

let grow_int a len =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 len;
  b

let grow_bytes a len =
  let b = Bytes.create (2 * Bytes.length a) in
  Bytes.blit a 0 b 0 len;
  b

let ensure_switch_room t =
  if t.n_switches = Array.length t.sws then begin
    let b = Array.make (2 * Array.length t.sws) dummy_switch in
    Array.blit t.sws 0 b 0 t.n_switches;
    t.sws <- b;
    t.srank <- grow_bytes t.srank t.n_switches;
    t.sfuture <- grow_bytes t.sfuture t.n_switches
  end

let ensure_circuit_room t =
  if t.n_circuits = Array.length t.ep_lo then begin
    t.ep_lo <- grow_int t.ep_lo t.n_circuits;
    t.ep_hi <- grow_int t.ep_hi t.n_circuits;
    let c = Array.make (2 * Array.length t.cap) 0.0 in
    Array.blit t.cap 0 c 0 t.n_circuits;
    t.cap <- c;
    t.cfuture <- grow_bytes t.cfuture t.n_circuits
  end

let add_switch t ~name ~role ?(generation = 1) ?(dc = -1) ?(pod = -1)
    ?(plane = -1) ?(index = 0) ?(future = false) ~max_ports () =
  if Hashtbl.mem t.names name then
    invalid_arg (Printf.sprintf "Builder.add_switch: duplicate name %S" name);
  Hashtbl.add t.names name ();
  ensure_switch_room t;
  let id = t.n_switches in
  t.sws.(id) <-
    Switch.make ~id ~name ~role ~generation ~dc ~pod ~plane ~index ~max_ports
      ();
  Bytes.unsafe_set t.srank id (Char.unsafe_chr (Switch.rank role));
  Bytes.unsafe_set t.sfuture id (if future then '\001' else '\000');
  t.n_switches <- id + 1;
  id
[@@klotski.unchecked
  "ensure_switch_room keeps srank and sfuture as long as sws, so id = \
   n_switches is a byte of both; a Switch.rank fits a byte"]

let add_circuit t ~lo ~hi ?(future = false) ~capacity () =
  let rank s =
    if s < 0 || s >= t.n_switches then
      invalid_arg "Builder.add_circuit: unknown switch id";
    Char.code (Bytes.unsafe_get t.srank s)
  in
  let rlo = rank lo and rhi = rank hi in
  if rlo = rhi then
    invalid_arg "Builder.add_circuit: endpoints must be on different layers";
  let lo, hi = if rlo < rhi then (lo, hi) else (hi, lo) in
  (* Same guard (and message) Circuit.make applied when circuits were
     materialized as records on this path. *)
  if capacity <= 0.0 then invalid_arg "Circuit.make: non-positive capacity";
  ensure_circuit_room t;
  let id = t.n_circuits in
  t.ep_lo.(id) <- lo;
  t.ep_hi.(id) <- hi;
  t.cap.(id) <- capacity;
  let cfuture =
    future
    || Bytes.unsafe_get t.sfuture lo = '\001'
    || Bytes.unsafe_get t.sfuture hi = '\001'
  in
  Bytes.unsafe_set t.cfuture id (if cfuture then '\001' else '\000');
  t.n_circuits <- id + 1;
  id
[@@klotski.unchecked
  "rank range-checks lo and hi against n_switches before either is read \
   from srank or sfuture, and ensure_circuit_room keeps cfuture as long \
   as ep_lo, so id = n_circuits is a byte of it"]

let connect_all t ~los ~his ?(future = false) ~capacity () =
  List.concat_map
    (fun lo -> List.map (fun hi -> add_circuit t ~lo ~hi ~future ~capacity ()) his)
    los

let future_ids flags n =
  let acc = ref [] in
  for i = n - 1 downto 0 do
    if Bytes.unsafe_get flags i = '\001' then acc := i :: !acc
  done;
  !acc
[@@klotski.unchecked
  "callers pass sfuture with n_switches or cfuture with n_circuits, and \
   each buffer holds at least that many bytes"]

let future_switches t = future_ids t.sfuture t.n_switches
let future_circuits t = future_ids t.cfuture t.n_circuits

let freeze t =
  let u =
    Universe.create_packed
      ~switches:(Array.sub t.sws 0 t.n_switches)
      ~ep_lo:(Array.sub t.ep_lo 0 t.n_circuits)
      ~ep_hi:(Array.sub t.ep_hi 0 t.n_circuits)
      ~cap:(Array.sub t.cap 0 t.n_circuits)
  in
  let topo = Topo.of_universe u in
  (* Deactivate future circuits first so switch toggles do not double-count
     usable transitions (set_* are idempotent either way, but this keeps the
     transition count minimal). *)
  List.iter (fun j -> Topo.set_circuit_active topo j false) (future_circuits t);
  List.iter (fun i -> Topo.set_switch_active topo i false) (future_switches t);
  topo
