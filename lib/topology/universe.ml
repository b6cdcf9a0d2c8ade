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
  ep_lo : Kutil.Col.t;  (* circuit j -> lower-rank endpoint *)
  ep_hi : Kutil.Col.t;  (* circuit j -> higher-rank endpoint *)
  cap : float array;  (* circuit j -> capacity, unboxed *)
  rank_pair : int array;  (* circuit j -> rank(lo) * 16 + rank(hi) *)
  max_ports : int array;  (* switch i -> port budget *)
  adj : int array;  (* CSR payload: up region [0, m), down region [m, 2m) *)
  up_off : int array;  (* n+1 offsets into adj's up region *)
  down_off : int array;  (* n+1 offsets into adj's down region *)
}

(* The columns come from [Builder], which range-checked and rank-checked
   every circuit as it was added and wrote its rank pair then.  The
   endpoint columns are proved once more, here, as [Kutil.Col]s: the row
   kernels read a row's endpoints through its circuit without a range
   check, so the proof must travel with the columns.  Every access below
   is bounds-checked. *)
let create_packed ~switches ~ep_lo ~ep_hi ~cap ~rank_pair =
  let n = Array.length switches and m = Array.length ep_lo in
  if Array.length ep_hi <> m || Array.length cap <> m || Array.length rank_pair <> m
  then invalid_arg "Universe.create_packed: circuit columns disagree on length";
  let ep_lo = Kutil.Col.make ~what:"Universe: lo endpoint" ~bound:n ep_lo
  and ep_hi = Kutil.Col.make ~what:"Universe: hi endpoint" ~bound:n ep_hi in
  let lo_ids = ep_lo.ids and hi_ids = ep_hi.ids in
  let max_ports = Array.make n 0 in
  for i = 0 to n - 1 do
    max_ports.(i) <- switches.(i).Switch.max_ports
  done;
  (* CSR in two passes: count per-switch degrees into the offset arrays,
     prefix-sum, then fill in increasing circuit id order. *)
  let up_off = Array.make (n + 1) 0 and down_off = Array.make (n + 1) 0 in
  for j = 0 to m - 1 do
    up_off.(lo_ids.(j) + 1) <- up_off.(lo_ids.(j) + 1) + 1;
    down_off.(hi_ids.(j) + 1) <- down_off.(hi_ids.(j) + 1) + 1
  done;
  down_off.(0) <- m;
  for i = 1 to n do
    up_off.(i) <- up_off.(i) + up_off.(i - 1);
    down_off.(i) <- down_off.(i) + down_off.(i - 1)
  done;
  let adj = Array.make (2 * m) (-1) in
  let up_fill = Array.copy up_off and down_fill = Array.copy down_off in
  for j = 0 to m - 1 do
    let lo = lo_ids.(j) and hi = hi_ids.(j) in
    adj.(up_fill.(lo)) <- j;
    up_fill.(lo) <- up_fill.(lo) + 1;
    adj.(down_fill.(hi)) <- j;
    down_fill.(hi) <- down_fill.(hi) + 1
  done;
  { switches; ep_lo; ep_hi; cap; rank_pair; max_ports; adj; up_off; down_off }

let n_switches u = Array.length u.switches
let n_circuits u = Array.length u.ep_lo.ids
let switch u i = u.switches.(i)

let circuit u j =
  { Circuit.id = j; lo = u.ep_lo.ids.(j); hi = u.ep_hi.ids.(j); capacity = u.cap.(j) }

(* View accessors hand out fresh copies: the packed arrays are the shared
   truth and must never be writable through the public API.  Callers that
   loop should use the flat accessors/iterators instead. *)
let switches u = Array.copy u.switches
let circuits u = Array.init (n_circuits u) (circuit u)

let capacity u j = u.cap.(j)
let endpoint_lo u j = u.ep_lo.ids.(j)
let endpoint_hi u j = u.ep_hi.ids.(j)

let ends u = function `Up -> (u.ep_lo, u.ep_hi) | `Down -> (u.ep_hi, u.ep_lo)

let other_endpoint u j s =
  let lo = u.ep_lo.ids.(j) in
  if s = lo then u.ep_hi.ids.(j)
  else if s = u.ep_hi.ids.(j) then lo
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

(* The θ verdict kept per circuit.  A circuit is over θ exactly when
   [theta_ok]'s test fails it: positive load, a utilization not within
   θ, and usable. *)
let[@inline] over_theta cap ~usable (loads : float array) ~theta j =
  let l = loads.(j) in
  l > 0.0 && (not (l /. cap.(j) <= theta)) && Kutil.Bitset.mem usable j

(* Circuit [j]'s bit in a circuit bitset: bit [j land 7] of byte
   [j lsr 3]. *)
let[@inline] has_mark marks j =
  Char.code (Bytes.get marks (j lsr 3)) land (1 lsl (j land 7)) <> 0

let[@inline] set_mark marks j =
  let b = j lsr 3 in
  Bytes.set marks b (Char.chr (Char.code (Bytes.get marks b) lor (1 lsl (j land 7))))

let[@inline] clear_mark marks j =
  let b = j lsr 3 in
  Bytes.set marks b
    (Char.chr (Char.code (Bytes.get marks b) land lnot (1 lsl (j land 7)) land 0xff))

let theta_count u ~usable (loads : float array) ~theta ~over =
  if Bytes.length over * 8 < Array.length loads then
    invalid_arg "Universe.theta_count: one flag per load";
  Bytes.fill over 0 (Bytes.length over) '\000';
  let cap = u.cap in
  let n = ref 0 in
  for j = 0 to Array.length loads - 1 do
    if over_theta cap ~usable loads ~theta j then begin
      set_mark over j;
      incr n
    end
  done;
  !n

let mark_incident u marks s =
  for k = u.up_off.(s) to u.up_off.(s + 1) - 1 do
    set_mark marks u.adj.(k)
  done;
  for k = u.down_off.(s) to u.down_off.(s + 1) - 1 do
    set_mark marks u.adj.(k)
  done

(* Re-judge circuit [j] under every load vector, moving each vector's
   count where its flag flips. *)
let rejudge_circuit cap ~usable (loads : float array array) over n_over ~theta j =
  for v = 0 to Array.length loads - 1 do
    let o = over_theta cap ~usable loads.(v) ~theta j and ov = over.(v) in
    if not (Bool.equal o (has_mark ov j)) then begin
      if o then set_mark ov j else clear_mark ov j;
      n_over.(v) <- (n_over.(v) + if o then 1 else -1)
    end
  done

(* Re-judge the circuits marked in byte [b] of [marks] and clear it. *)
let rejudge_byte cap ~usable marks loads over n_over ~theta b =
  let m = Char.code (Bytes.get marks b) in
  if m <> 0 then begin
    Bytes.set marks b '\000';
    for bit = 0 to 7 do
      if m land (1 lsl bit) <> 0 then
        rejudge_circuit cap ~usable loads over n_over ~theta ((b lsl 3) lor bit)
    done
  end

(* Eight mark bytes per word read: [Col.get_int64] at [o] reads bytes
   [o] to [o + 7], below [words * 8 <= Bytes.length marks].  A word is
   non-zero when one of its halves is: [Int64.to_int] keeps bits 0-62,
   the shifted copy bits 1-63. *)
let theta_rejudge u ~usable ~marks ~(loads : float array array) ~over ~n_over ~theta =
  let nv = Array.length loads in
  if Array.length over <> nv || Array.length n_over <> nv then
    invalid_arg "Universe.theta_rejudge: one flag column and count per load vector";
  for v = 0 to nv - 1 do
    if Bytes.length over.(v) * 8 < Array.length loads.(v) then
      invalid_arg "Universe.theta_rejudge: one flag per load"
  done;
  let cap = u.cap in
  let len = Bytes.length marks in
  let words = len / 8 in
  for w = 0 to words - 1 do
    let o = w lsl 3 in
    let x = Kutil.Col.get_int64 marks o in
    if Int64.to_int x lor Int64.to_int (Int64.shift_right_logical x 1) <> 0 then
      for b = o to o + 7 do
        rejudge_byte cap ~usable marks loads over n_over ~theta b
      done
  done;
  for b = words lsl 3 to len - 1 do
    rejudge_byte cap ~usable marks loads over n_over ~theta b
  done

(* Route compilation, one call per hop.  A walk keeps switch and circuit
   marks as bits in plain [Bytes] and tests them in place, as the load
   scans above read [cap]: under [-opaque] a per-row [Kutil.Bitset] call
   or adjacency callback from another module is an out-of-line call. *)

type rows = {
  dir : [ `Up | `Down ];
  circuits : int array;
  alt_hi : int array;
  skips : int array;
}

type walk = {
  mutable frontier : Bytes.t;  (* switches the next hop starts from *)
  mutable reached : Bytes.t;  (* switches this hop's [accept] admitted *)
  rejected : Bytes.t;  (* switches this hop's [accept] refused *)
  skipped : Bytes.t;  (* frontier switches this hop's [skip] holds for *)
  marked : Bytes.t;  (* this hop's candidate circuits *)
  alt_js : int array;  (* wiring alternatives by circuit id, each pair *)
  alt_his : int array;  (* once, per circuit in [alts] order *)
}

let[@inline] bit b i =
  Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let[@inline] set_bit b i =
  let k = i lsr 3 in
  Bytes.set b k (Char.chr (Char.code (Bytes.get b k) lor (1 lsl (i land 7))))

let start_walk u ~sources ~alts =
  let n = n_switches u and m = n_circuits u in
  let bits k = Bytes.make ((k + 7) / 8) '\000' in
  let frontier = bits n in
  Array.iter
    (fun s ->
      if s < 0 || s >= n then invalid_arg "Universe.start_walk: source out of range";
      set_bit frontier s)
    sources;
  List.iter
    (fun (j, h) ->
      if j < 0 || j >= m || h < 0 || h >= n then
        invalid_arg "Universe.start_walk: alternative out of range")
    alts;
  (* Sorted stably by circuit, so each circuit's alternatives keep their
     [alts] order; a pair already kept for its circuit is dropped.  The
     kept list's head is the current circuit's run. *)
  let kept =
    List.fold_left
      (fun kept (j, h) ->
        let rec listed = function
          | (j', h') :: rest when j' = j -> h' = h || listed rest
          | _ -> false
        in
        if listed kept then kept else (j, h) :: kept)
      []
      (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) alts)
    |> List.rev |> Array.of_list
  in
  {
    frontier;
    reached = bits n;
    rejected = bits n;
    skipped = bits n;
    marked = bits m;
    alt_js = Array.map fst kept;
    alt_his = Array.map snd kept;
  }

(* [accept] once per switch per hop: [reached] and [rejected] keep the
   verdicts.  Until the hop's skips are added, [reached] holds exactly
   the switches [accept] admitted. *)
let[@inline] accepts u w accept s =
  if bit w.reached s then true
  else if bit w.rejected s then false
  else if accept u.switches.(s) then begin
    set_bit w.reached s;
    true
  end
  else begin
    set_bit w.rejected s;
    false
  end

(* Counting walks the frontier's adjacency: a circuit there has its prev
   on the frontier, so its as-built row is kept exactly when [accept]
   admits its next, and only then is it marked.  Alternatives are
   counted from their pairs, and their circuits marked so the fill
   visits them.  Filling walks the marks once, in increasing circuit id:
   a marked circuit without alternatives is a kept as-built row; one
   with alternatives (the merge cursor's) re-tests its as-built row and
   each alternative against the verdicts counting left, so the fill
   calls no [accept].  Skips join the next frontier after the fill has
   read [reached]. *)
let walk_hop u w ~dir ~accept ~skip =
  let up = match dir with `Up -> true | `Down -> false in
  let off = if up then u.up_off else u.down_off in
  let ep_lo = u.ep_lo.ids and ep_hi = u.ep_hi.ids and adj = u.adj in
  let fr = w.frontier and mk = w.marked and sk = w.skipped in
  let alt_js = w.alt_js and alt_his = w.alt_his in
  let n_alts = Array.length alt_js in
  let jmin = ref max_int and jmax = ref (-1) in
  let n_rows = ref 0 and n_alt_rows = ref 0 and n_skips = ref 0 in
  for byte = 0 to Bytes.length fr - 1 do
    let bits = Char.code (Bytes.get fr byte) in
    if bits <> 0 then
      for b = 0 to 7 do
        if bits land (1 lsl b) <> 0 then begin
          let s = (byte lsl 3) lor b in
          for k = off.(s) to off.(s + 1) - 1 do
            let j = adj.(k) in
            if accepts u w accept (if up then ep_hi.(j) else ep_lo.(j)) then begin
              set_bit mk j;
              incr n_rows;
              if j < !jmin then jmin := j;
              if j > !jmax then jmax := j
            end
          done;
          if skip u.switches.(s) then begin
            set_bit sk s;
            incr n_skips
          end
        end
      done
  done;
  for x = 0 to n_alts - 1 do
    let j = alt_js.(x) and h = alt_his.(x) in
    set_bit mk j;
    if j < !jmin then jmin := j;
    if j > !jmax then jmax := j;
    let lo = ep_lo.(j) in
    if bit fr (if up then lo else h) && accepts u w accept (if up then h else lo)
    then begin
      incr n_rows;
      incr n_alt_rows
    end
  done;
  let rows = !n_rows in
  let circuits = Array.make rows 0 in
  let alt_hi = if !n_alt_rows > 0 then Array.make rows (-1) else [||] in
  let i = ref 0 and cur = ref 0 in
  (* Nothing marked leaves [jmin > jmax]: the fill is empty. *)
  for byte = !jmin lsr 3 to !jmax asr 3 do
    let bits = Char.code (Bytes.get mk byte) in
    if bits <> 0 then begin
      for b = 0 to 7 do
        if bits land (1 lsl b) <> 0 then begin
          let j = (byte lsl 3) lor b in
          if !cur < n_alts && alt_js.(!cur) = j then begin
            let lo = ep_lo.(j) and hi = ep_hi.(j) in
            let prev = if up then lo else hi and next = if up then hi else lo in
            if bit fr prev && bit w.reached next then begin
              circuits.(!i) <- j;
              incr i
            end;
            while !cur < n_alts && alt_js.(!cur) = j do
              let h = alt_his.(!cur) in
              let prev = if up then lo else h and next = if up then h else lo in
              if bit fr prev && bit w.reached next then begin
                circuits.(!i) <- j;
                alt_hi.(!i) <- h;
                incr i
              end;
              incr cur
            done
          end
          else begin
            circuits.(!i) <- j;
            incr i
          end
        end
      done;
      Bytes.set mk byte '\000'
    end
  done;
  let skips = Array.make !n_skips 0 in
  if !n_skips > 0 then begin
    let i = ref 0 in
    for byte = 0 to Bytes.length sk - 1 do
      let bits = Char.code (Bytes.get sk byte) in
      if bits <> 0 then begin
        for b = 0 to 7 do
          if bits land (1 lsl b) <> 0 then begin
            let s = (byte lsl 3) lor b in
            skips.(!i) <- s;
            incr i;
            set_bit w.reached s
          end
        done;
        Bytes.set sk byte '\000'
      end
    done
  end;
  let next = w.reached in
  w.reached <- w.frontier;
  w.frontier <- next;
  Bytes.fill w.reached 0 (Bytes.length w.reached) '\000';
  Bytes.fill w.rejected 0 (Bytes.length w.rejected) '\000';
  { dir; circuits; alt_hi; skips }

let footprint u =
  let words a = Array.length a + 1 in
  let n = n_switches u in
  [
    (* pointer array plus 10 words per record; name strings excluded *)
    ("switch records", 8 * ((n + 1) + (n * 10)));
    ("endpoints", 8 * (words u.ep_lo.ids + words u.ep_hi.ids));
    ("capacities", 8 * words u.cap);
    ("rank pairs", 8 * words u.rank_pair);
    ("port budgets", 8 * words u.max_ports);
    ("adjacency", 8 * (words u.adj + words u.up_off + words u.down_off));
  ]
