(* Streams declarations straight into flat columns allocated once, at the
   counts the caller declares — the packed layout [Universe.create_packed]
   takes over without a copy — so building an F-scale topology (~1M
   circuits) allocates no per-circuit records, no intermediate lists and
   no growth copies.  Ranks and future flags live in byte columns; each
   circuit's range and rank checks run once, here, and its rank pair is
   written while both ranks are at hand. *)

type t = {
  sws : Switch.t array;  (* slots [0, n_switches) are valid *)
  srank : Bytes.t;  (* switch id -> Switch.rank (fits a byte) *)
  sfuture : Bytes.t;  (* switch id -> 0/1 future flag *)
  mutable n_switches : int;
  ep_lo : int array;
  ep_hi : int array;
  cap : float array;
  rank_pair : int array;
  cfuture : Bytes.t;  (* circuit id -> 0/1 future flag *)
  mutable n_circuits : int;
}

let dummy_switch =
  Switch.make ~id:(-1) ~name:"" ~role:Switch.RSW ~max_ports:0 ()

let create ~switches ~circuits =
  {
    sws = Array.make switches dummy_switch;
    srank = Bytes.make switches '\000';
    sfuture = Bytes.make switches '\000';
    n_switches = 0;
    ep_lo = Array.make circuits 0;
    ep_hi = Array.make circuits 0;
    cap = Array.make circuits 0.0;
    rank_pair = Array.make circuits 0;
    cfuture = Bytes.make circuits '\000';
    n_circuits = 0;
  }

let add_switch t ~name ~role ?(generation = 1) ?(dc = -1) ?(pod = -1)
    ?(plane = -1) ?(index = 0) ?(future = false) ~max_ports () =
  let id = t.n_switches in
  if id >= Array.length t.sws then
    invalid_arg "Builder.add_switch: more switches than declared";
  t.sws.(id) <- { Switch.id; name; role; generation; dc; pod; plane; index; max_ports };
  Bytes.unsafe_set t.srank id (Char.unsafe_chr (Switch.rank role));
  if future then Bytes.unsafe_set t.sfuture id '\001';
  t.n_switches <- id + 1;
  id
[@@klotski.unchecked
  "srank and sfuture are as long as sws, and id = n_switches was just \
   checked against that length; a Switch.rank fits a byte"]

let rank t s =
  if s < 0 || s >= t.n_switches then
    invalid_arg "Builder.add_circuit: unknown switch id";
  Char.code (Bytes.unsafe_get t.srank s)
[@@klotski.unchecked
  "s is range-checked against n_switches, which never exceeds the length \
   of srank, before it is read"]

let add_circuit t ~lo ~hi ?(future = false) ~capacity () =
  let rlo = rank t lo and rhi = rank t hi in
  if rlo = rhi then
    invalid_arg "Builder.add_circuit: endpoints must be on different layers";
  if not (capacity > 0.0 && Float.is_finite capacity) then
    invalid_arg "Builder.add_circuit: capacity must be positive and finite";
  let id = t.n_circuits in
  if id >= Array.length t.ep_lo then
    invalid_arg "Builder.add_circuit: more circuits than declared";
  let up = rlo < rhi in
  let lo = if up then lo else hi and hi = if up then hi else lo in
  t.ep_lo.(id) <- lo;
  t.ep_hi.(id) <- hi;
  t.cap.(id) <- capacity;
  t.rank_pair.(id) <- (Int.min rlo rhi * 16) + Int.max rlo rhi;
  if
    future
    || Bytes.unsafe_get t.sfuture lo = '\001'
    || Bytes.unsafe_get t.sfuture hi = '\001'
  then Bytes.unsafe_set t.cfuture id '\001';
  t.n_circuits <- id + 1;
  id
[@@klotski.unchecked
  "rank range-checks lo and hi against n_switches, which never exceeds \
   the length of sfuture, before either is read; cfuture is as long as \
   ep_lo, and id = n_circuits was just checked against that length"]

let connect_all t ~los ~his ?(future = false) ~capacity () =
  List.concat_map
    (fun lo -> List.map (fun hi -> add_circuit t ~lo ~hi ~future ~capacity ()) his)
    los

let freeze t =
  if
    t.n_switches <> Array.length t.sws || t.n_circuits <> Array.length t.ep_lo
  then
    invalid_arg
      (Printf.sprintf
         "Builder.freeze: %d of %d switches and %d of %d circuits added"
         t.n_switches (Array.length t.sws) t.n_circuits (Array.length t.ep_lo));
  let u =
    Universe.create_packed ~switches:t.sws ~ep_lo:t.ep_lo ~ep_hi:t.ep_hi
      ~cap:t.cap ~rank_pair:t.rank_pair
  in
  Topo.of_universe u ~switch_future:t.sfuture ~circuit_future:t.cfuture
