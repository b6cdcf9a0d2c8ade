(* The immutable half of the topology split: every field is written once
   here and never again, so one universe can be shared physically by any
   number of overlays across any number of domains.

   The static structure is packed into flat parallel arrays — an unboxed
   float array for capacities, int arrays for endpoints, rank pairs and
   port budgets — plus CSR-style adjacency: one [adj] array of circuit
   ids whose first half lays every switch's up-circuits back to back
   (indexed by [up_off]) and whose second half the down-circuits
   ([down_off]).  Hot paths (ECMP traversal, load checks, symmetry
   signatures) read these arrays through the flat accessors and never
   touch a [Circuit.t] record; [circuit]/[circuits] materialize record
   views on demand for cold/API paths.  Within each region circuits
   appear in increasing id order, matching the legacy per-switch arrays
   bit for bit. *)

type t = {
  switches : Switch.t array;  (* records: cold fields (names, pods) live here *)
  ep_lo : int array;  (* circuit j -> lower-rank endpoint *)
  ep_hi : int array;  (* circuit j -> higher-rank endpoint *)
  cap : float array;  (* circuit j -> capacity, unboxed *)
  rank_pair : int array;  (* circuit j -> rank(lo) * 16 + rank(hi) *)
  max_ports : int array;  (* switch i -> port budget *)
  adj : int array;  (* CSR payload: up region [0, m), down region [m, 2m) *)
  up_off : int array;  (* n+1 offsets into adj's up region *)
  down_off : int array;  (* n+1 offsets into adj's down region *)
  name_index : (string, int) Hashtbl.t;
      (* built eagerly so sharing across domains needs no synchronization *)
  full_deg : int array;  (* incident-circuit count per switch *)
  full_port_violations : int;  (* violations when everything is usable *)
}

let validate_packed switches ep_lo ep_hi cap =
  Array.iteri
    (fun i (s : Switch.t) ->
      if s.Switch.id <> i then invalid_arg "Universe.create: switch id mismatch")
    switches;
  let m = Array.length ep_lo in
  if Array.length ep_hi <> m || Array.length cap <> m then
    invalid_arg "Universe.create: endpoint/capacity arrays disagree on length";
  let n = Array.length switches in
  for j = 0 to m - 1 do
    let lo = ep_lo.(j) and hi = ep_hi.(j) in
    if lo < 0 || lo >= n || hi < 0 || hi >= n then
      invalid_arg "Universe.create: circuit endpoint out of range";
    let rlo = Switch.rank switches.(lo).Switch.role
    and rhi = Switch.rank switches.(hi).Switch.role in
    if rlo >= rhi then
      invalid_arg "Universe.create: circuit endpoints must go lower->higher rank"
  done

let create_packed ~switches ~ep_lo ~ep_hi ~cap =
  validate_packed switches ep_lo ep_hi cap;
  let n = Array.length switches and m = Array.length ep_lo in
  let rank_pair = Array.make m 0 in
  for j = 0 to m - 1 do
    rank_pair.(j) <-
      (Switch.rank switches.(ep_lo.(j)).Switch.role * 16)
      + Switch.rank switches.(ep_hi.(j)).Switch.role
  done;
  let max_ports = Array.make n 0 in
  for i = 0 to n - 1 do
    max_ports.(i) <- switches.(i).Switch.max_ports
  done;
  (* CSR in two passes: count per-switch degrees into the offset arrays,
     prefix-sum, then fill in increasing circuit id order. *)
  let up_off = Array.make (n + 1) 0 and down_off = Array.make (n + 1) 0 in
  for j = 0 to m - 1 do
    up_off.(ep_lo.(j) + 1) <- up_off.(ep_lo.(j) + 1) + 1;
    down_off.(ep_hi.(j) + 1) <- down_off.(ep_hi.(j) + 1) + 1
  done;
  down_off.(0) <- m;
  for i = 1 to n do
    up_off.(i) <- up_off.(i) + up_off.(i - 1);
    down_off.(i) <- down_off.(i) + down_off.(i - 1)
  done;
  let adj = Array.make (2 * m) (-1) in
  let up_fill = Array.copy up_off and down_fill = Array.copy down_off in
  for j = 0 to m - 1 do
    let lo = ep_lo.(j) and hi = ep_hi.(j) in
    adj.(up_fill.(lo)) <- j;
    up_fill.(lo) <- up_fill.(lo) + 1;
    adj.(down_fill.(hi)) <- j;
    down_fill.(hi) <- down_fill.(hi) + 1
  done;
  let full_deg = Array.make n 0 in
  for j = 0 to m - 1 do
    full_deg.(ep_lo.(j)) <- full_deg.(ep_lo.(j)) + 1;
    full_deg.(ep_hi.(j)) <- full_deg.(ep_hi.(j)) + 1
  done;
  let full_port_violations = ref 0 in
  for i = 0 to n - 1 do
    if full_deg.(i) > max_ports.(i) then incr full_port_violations
  done;
  let name_index = Hashtbl.create (max 16 n) in
  Array.iter (fun (s : Switch.t) -> Hashtbl.replace name_index s.name s.id)
    switches;
  {
    switches;
    ep_lo;
    ep_hi;
    cap;
    rank_pair;
    max_ports;
    adj;
    up_off;
    down_off;
    name_index;
    full_deg;
    full_port_violations = !full_port_violations;
  }

let create ~switches ~circuits =
  Array.iteri
    (fun j (c : Circuit.t) ->
      if c.Circuit.id <> j then
        invalid_arg "Universe.create: circuit id mismatch")
    circuits;
  let m = Array.length circuits in
  let ep_lo = Array.make m 0 and ep_hi = Array.make m 0 in
  let cap = Array.make m 0.0 in
  Array.iteri
    (fun j (c : Circuit.t) ->
      ep_lo.(j) <- c.Circuit.lo;
      ep_hi.(j) <- c.Circuit.hi;
      cap.(j) <- c.Circuit.capacity)
    circuits;
  create_packed ~switches ~ep_lo ~ep_hi ~cap

let n_switches u = Array.length u.switches
let n_circuits u = Array.length u.ep_lo
let switch u i = u.switches.(i)

let circuit u j =
  { Circuit.id = j; lo = u.ep_lo.(j); hi = u.ep_hi.(j); capacity = u.cap.(j) }

(* View accessors hand out fresh copies: the packed arrays are the shared
   truth and must never be writable through the public API.  Callers that
   loop should use the flat accessors/iterators instead. *)
let switches u = Array.copy u.switches
let circuits u = Array.init (n_circuits u) (circuit u)

let capacity u j = u.cap.(j)
let endpoint_lo u j = u.ep_lo.(j)
let endpoint_hi u j = u.ep_hi.(j)

let other_endpoint u j s =
  let lo = u.ep_lo.(j) in
  if s = lo then u.ep_hi.(j)
  else if s = u.ep_hi.(j) then lo
  else invalid_arg "Universe.other_endpoint: switch not an endpoint"

let rank_pair u j = u.rank_pair.(j)
let max_ports u i = u.max_ports.(i)
let up_degree u s = u.up_off.(s + 1) - u.up_off.(s)
let down_degree u s = u.down_off.(s + 1) - u.down_off.(s)
let up_circuits u s = Array.sub u.adj u.up_off.(s) (up_degree u s)
let down_circuits u s = Array.sub u.adj u.down_off.(s) (down_degree u s)

let iter_up u s ~f =
  for k = u.up_off.(s) to u.up_off.(s + 1) - 1 do
    f u.adj.(k)
  done

let iter_down u s ~f =
  for k = u.down_off.(s) to u.down_off.(s + 1) - 1 do
    f u.adj.(k)
  done

let iter_incident u s ~f =
  iter_up u s ~f;
  iter_down u s ~f

(* Load scans over every circuit, or a listed subset, one call per scan:
   the loop reads [cap] here, so no capacity is boxed to cross a module
   boundary per circuit.  A circuit counts only when it carries positive
   load and is in [usable]; [usable] is probed last, after the float
   tests, which is the same verdict for these pure tests and leaves
   the probe (a call into [Bitset]) to the few circuits that fail them. *)
let theta_ok u ~usable (loads : float array) ~theta =
  let cap = u.cap in
  let n = Array.length loads in
  let j = ref 0 in
  while
    !j < n
    && ((not (loads.(!j) > 0.0))
       || loads.(!j) /. cap.(!j) <= theta
       || not (Kutil.Bitset.mem usable !j))
  do
    incr j
  done;
  !j >= n

let min_residual u ~usable (loads : float array) ~theta =
  let cap = u.cap in
  let worst = ref infinity in
  for j = 0 to Array.length loads - 1 do
    let load = loads.(j) in
    if load > 0.0 then begin
      let w = cap.(j) in
      let residual = ((theta *. w) -. load) /. w in
      if residual < !worst && Kutil.Bitset.mem usable j then worst := residual
    end
  done;
  !worst

let hottest u ~usable (loads : float array) top_j top_u =
  let cap = u.cap in
  let last = Array.length top_j - 1 in
  for j = 0 to Array.length loads - 1 do
    let load = loads.(j) in
    if load > 0.0 then begin
      let util = load /. cap.(j) in
      if util > top_u.(last) && Kutil.Bitset.mem usable j then begin
        let k = ref last in
        while !k > 0 && util > top_u.(!k - 1) do
          top_u.(!k) <- top_u.(!k - 1);
          top_j.(!k) <- top_j.(!k - 1);
          decr k
        done;
        top_u.(!k) <- util;
        top_j.(!k) <- j
      end
    end
  done

let funneling_ok u ~usable (loads : float array) circuits ~phi ~theta =
  let cap = u.cap in
  let n = Array.length circuits in
  let i = ref 0 in
  while
    !i < n
    &&
    let j = circuits.(!i) in
    (not (loads.(j) > 0.0))
    || loads.(j) *. (1.0 +. phi) /. cap.(j) <= theta
    || not (Kutil.Bitset.mem usable j)
  do
    incr i
  done;
  !i >= n

let find_switch u name =
  match Hashtbl.find_opt u.name_index name with
  | Some i -> Some u.switches.(i)
  | None -> None

let full_degrees u = Array.copy u.full_deg
let full_port_violations u = u.full_port_violations

let footprint u =
  let words a = Array.length a + 1 in
  let n = n_switches u in
  [
    (* pointer array plus 10 words per record; name strings excluded *)
    ("switch records", 8 * ((n + 1) + (n * 10)));
    ("endpoints", 8 * (words u.ep_lo + words u.ep_hi));
    ("capacities", 8 * words u.cap);
    ("rank pairs", 8 * words u.rank_pair);
    ("port budgets", 8 * words u.max_ports);
    ("adjacency", 8 * (words u.adj + words u.up_off + words u.down_off));
    ("full degrees", 8 * words u.full_deg);
  ]
