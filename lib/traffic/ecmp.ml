module Bitset = Kutil.Bitset
module Col = Kutil.Col

type hop = {
  dir : [ `Up | `Down ];
  accept : Switch.t -> bool;
  skip : Switch.t -> bool;
}

let hop ?(skip = fun _ -> false) dir accept = { dir; accept; skip }

type rows = Universe.rows = {
  dir : [ `Up | `Down ];
  circuits : int array;
  alt_hi : int array;
  skips : int array;
}

(* Candidate circuits for one stage, one column per row, so the hot
   loops touch no records.  A row holds only its circuit: its upstream
   and downstream switches are the universe's endpoints at that circuit,
   read through [prevs]/[nexts], the universe's own endpoint columns
   picked once by the stage's direction ([Universe.ends]).  A circuit
   that can be rewired (OCS) compiles into several rows — one per wiring
   it may take; [alt_hi.(i)] records which wiring row [i] stands for
   (-1 = as-built), and an alternative row's hi end replaces its
   circuit's: its next switch going [up], its prev going down.
   Evaluation admits a row only when the overlay's current wiring
   matches ([Topo.usable_wired]), so exactly one row per circuit is ever
   live.  A stage without alternative rows (every stage of a
   drain/undrain task) carries an empty [alt_hi].  [stage_of_rows]
   checks every id against the universe and gives [alt_hi] one entry per
   row, and the endpoint columns are the universe's proved ones, which
   is what lets the kernels below index without a range check. *)
type cstage = {
  circuits : Col.t;  (* bound: the universe's circuit count *)
  alt_hi : int array;  (* -1 = as-built; else the rewired hi endpoint *)
  up : bool;  (* the stage's direction *)
  prevs : Col.t;  (* circuit -> upstream endpoint at this stage *)
  nexts : Col.t;  (* circuit -> downstream endpoint *)
  skip_switches : Col.t;
}

type compiled = {
  sources : Col.t;  (* switches injecting positive volume *)
  source_vols : float array;  (* their volumes, in the same order *)
  stages : cstage array;
  volume : float;
  n_switches : int;  (* the universe's counts: every column's bound *)
  n_circuits : int;
}

(* Growable scratch vector of switch or circuit ids. *)
module Ivec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 64 0; len = 0 }

  let grow v =
    let data = Array.make (2 * v.len) 0 in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data

  (* [data] is never empty, so [len < Array.length data] once [grow]
     has run: the store needs no range check. *)
  let[@inline] push v x =
    if v.len = Array.length v.data then grow v;
    Col.set v.data v.len x;
    v.len <- v.len + 1

  let clear v = v.len <- 0

  (* Room for [n] entries, so that many pushes grow nothing.  Call it
     only while [v] is empty: the entries are not kept. *)
  let reserve v n =
    if Array.length v.data < n then v.data <- Array.make n 0
end

(* A stage's [alt_hi] column, empty when no row is an alternative.  An
   alternative's endpoint is a switch the kernels index with, so it is
   checked here like every other id. *)
let alt_column ~n a =
  Array.iter
    (fun h ->
      if h >= n then
        invalid_arg (Printf.sprintf "Ecmp: alternative switch %d out of range [0, %d)" h n))
    a;
  if Array.for_all (fun h -> h < 0) a then [||] else a

(* The one place a stage is made: every id is checked against the
   universe once, here, [alt_hi] must be empty or one entry per row, the
   rows must come in circuit order (the delta layer finds a circuit's
   rows by binary search), and the endpoint columns are [u]'s,
   [n_circuits] long and bounded by [n_switches]
   ([Universe.create_packed] proved them). *)
let stage_of_rows u c (r : rows) =
  let n_rows = Array.length r.circuits in
  if Array.length r.alt_hi <> n_rows && Array.length r.alt_hi <> 0 then
    invalid_arg "Ecmp: a stage's columns differ in length";
  for i = 1 to n_rows - 1 do
    if r.circuits.(i) < r.circuits.(i - 1) then
      invalid_arg "Ecmp: a stage's rows are not in circuit order"
  done;
  let n = c.n_switches in
  let prevs, nexts = Universe.ends u r.dir in
  {
    circuits = Col.make ~what:"Ecmp: circuit" ~bound:c.n_circuits r.circuits;
    alt_hi = alt_column ~n r.alt_hi;
    up = (match r.dir with `Up -> true | `Down -> false);
    prevs;
    nexts;
    skip_switches = Col.make ~what:"Ecmp: skip switch" ~bound:n r.skips;
  }

(* A class with no stages yet, its sources validated.  The sources are
   read in one loop, summing [volume] in list order, so nothing is
   allocated per source but the two columns. *)
let of_sources u ~sources =
  let n_switches = Universe.n_switches u in
  let n = List.fold_left (fun k (_, v) -> if v > 0.0 then k + 1 else k) 0 sources in
  let ids = Array.make n 0 and vols = Array.make n 0.0 in
  let volume = ref 0.0 and i = ref 0 and rest = ref sources in
  while
    match !rest with
    | [] -> false
    | (s, v) :: tl ->
        volume := !volume +. v;
        if v > 0.0 then begin
          ids.(!i) <- s;
          vols.(!i) <- v;
          incr i
        end;
        rest := tl;
        true
  do
    ()
  done;
  {
    sources = Col.make ~what:"Ecmp: source switch" ~bound:n_switches ids;
    source_vols = vols;
    stages = [||];
    volume = !volume;
    n_switches;
    n_circuits = Universe.n_circuits u;
  }

(* One [Universe.walk_hop] call per hop: the rows come out in circuit-id
   order with their columns at final length, and [stage_of_rows] proves
   their ids. *)
let compile ?(alts = []) u ~sources ~hops =
  let c = of_sources u ~sources in
  let w = Universe.start_walk u ~sources:c.sources.ids ~alts in
  let stage (h : hop) =
    stage_of_rows u c
      (Universe.walk_hop u w ~dir:h.dir ~accept:h.accept ~skip:h.skip)
  in
  { c with stages = Array.of_list (List.map stage hops) }

let assemble u ~sources ~stages =
  let c = of_sources u ~sources in
  let stage (r : rows) =
    stage_of_rows u c
      {
        r with
        circuits = Array.copy r.circuits;
        alt_hi = Array.copy r.alt_hi;
        skips = Array.copy r.skips;
      }
  in
  { c with stages = Array.map stage stages }


let n_rows stage = Array.length stage.circuits.ids

let stage_circuit_count c =
  Array.fold_left (fun acc s -> acc + n_rows s) 0 c.stages

let n_stages c = Array.length c.stages

let stage_sizes c = Array.map n_rows c.stages

(* Row [i]'s endpoints on a stage with alternative rows, given its
   circuit [j]: the universe's at [j], except that an alternative's hi
   end [h] is the next switch going up and the previous one going down.
   The forward passes take a row loop without this test wherever
   [alt_hi] is empty; [owner_masks], which runs once per class when a
   task is built rather than once per check, and [iter_candidates] test
   it per row. *)
let[@inline] alt_prev stage i j =
  let h = Col.get stage.alt_hi i in
  if h < 0 || stage.up then Col.get stage.prevs.ids j else h

let[@inline] alt_next stage i j =
  let h = Col.get stage.alt_hi i in
  if h < 0 || not stage.up then Col.get stage.nexts.ids j else h

let iter_candidates c ~f =
  Array.iteri
    (fun k stage ->
      let alts = Array.length stage.alt_hi > 0 in
      for i = 0 to n_rows stage - 1 do
        let j = stage.circuits.ids.(i) in
        let prev = if alts then alt_prev stage i j else stage.prevs.ids.(j) in
        let next = if alts then alt_next stage i j else stage.nexts.ids.(j) in
        f ~stage:k ~circuit:j ~prev ~next
      done)
    c.stages

(* One pass per stage.  The ids a row yields lie below the class's
   counts ([stage_of_rows]) and the owner arrays are that long, so the
   owner reads need no range check; [into] is indexed by owner values,
   which nothing here proves, so its accesses stay checked. *)
let owner_masks c ~switch_owner ~circuit_owner ~into =
  if
    Array.length switch_owner <> c.n_switches
    || Array.length circuit_owner <> c.n_circuits
  then invalid_arg "Ecmp.owner_masks: an owner array is sized for another universe";
  Array.iteri
    (fun k stage ->
      let bit = 1 lsl min k 61 in
      let circuits = stage.circuits.ids in
      let prevs = stage.prevs.ids and nexts = stage.nexts.ids in
      let alts = Array.length stage.alt_hi > 0 in
      for i = 0 to Array.length circuits - 1 do
        let j = Col.get circuits i in
        let o = Col.get circuit_owner j in
        if o >= 0 then into.(o) <- into.(o) lor bit;
        let prev = if alts then alt_prev stage i j else Col.get prevs j in
        let o = Col.get switch_owner prev in
        if o >= 0 then into.(o) <- into.(o) lor bit;
        let next = if alts then alt_next stage i j else Col.get nexts j in
        let o = Col.get switch_owner next in
        if o >= 0 then into.(o) <- into.(o) lor bit
      done)
    c.stages

(* [vol], [nvol], [cand] and [candw] have one entry per switch of the
   universe [make_scratch] was given; the entry checks compare the first
   with a class's switch count and stand for all four. *)
type scratch = {
  vol : float array;  (* per switch, zero outside [touched] *)
  nvol : float array;
  cand : int array;  (* per switch: -1 skip marker, else candidate count *)
  candw : float array;  (* total qualifying capacity, for weighted split *)
  touched : Ivec.t;
  ntouched : Ivec.t;
  mutable useful : Bitset.t array;
      (* stage index -> useful switches, for [evaluate]; a recorded
         class keeps its own *)
  mutable live : Bytes.t array;
      (* stage index -> one byte per row: does the row qualify?  Written
         by the backward sweep, read by the forward passes. *)
  mutable loc : int array;
      (* the delta layer's switch -> local id at stage boundary [loaded]
         of the class being patched; empty until a record is first
         rebuilt *)
  mutable loaded : int;
  mutable queues : Ivec.t array;  (* per stage: local switches to re-split *)
  vqueue : Ivec.t;  (* next-stage local switches to re-sum *)
  mutable fhi : Ivec.t;
      (* the sparse sweep's switches whose usefulness flipped at the
         boundary above the stage it re-judges ... *)
  mutable flo : Ivec.t;  (* ... and at the stage's own boundary *)
}

let make_scratch u =
  let n = Universe.n_switches u in
  {
    vol = Array.make n 0.0;
    nvol = Array.make n 0.0;
    cand = Array.make n 0;
    candw = Array.make n 0.0;
    touched = Ivec.create ();
    ntouched = Ivec.create ();
    useful = [||];
    live = [||];
    loc = [||];
    loaded = -1;
    queues = [||];
    vqueue = Ivec.create ();
    fhi = Ivec.create ();
    flo = Ivec.create ();
  }

type result = { delivered : float; stuck : float }

(* Auxiliary ensemble deposits: flow is linear in class volume, so a
   matrix that scales this class by [f] loads every circuit with exactly
   [f] times the base share.  Each (loads, factor) pair mirrors every
   base deposit, scaled — one traversal serves all matrices.  [aux]
   defaults to empty everywhere, leaving the base float stream
   untouched.  Inlined, so [share] is not boxed to pass it. *)
let[@inline] aux_add (aux : (float array * float) array) j share =
  for x = 0 to Array.length aux - 1 do
    let l, f = Col.get aux x in
    Col.set l j (Col.get l j +. (share *. f))
  done

(* Subtracting [share *. f] recomputes the very product [aux_add]
   deposited (same operands), so when a patch moves a row's share the
   old deposit cancels exactly as it does on the base loads. *)
let[@inline] aux_sub (aux : (float array * float) array) j share =
  for x = 0 to Array.length aux - 1 do
    let l, f = Col.get aux x in
    Col.set l j (Col.get l j -. (share *. f))
  done

(* The entry check of every evaluation, O(|aux|) and allocation-free:
   the kernels below index the overlay's sets, [sc]'s per-switch
   vectors, [loads] and every [aux] vector with ids from [c]'s columns
   and make no range check, so each must have been sized for [c]'s
   universe. *)
let check_sizes topo sc c ~loads aux =
  if Topo.n_switches topo <> c.n_switches || Topo.n_circuits topo <> c.n_circuits
  then invalid_arg "Ecmp: the overlay is sized for another universe";
  if Array.length sc.vol <> c.n_switches then
    invalid_arg "Ecmp: the scratch is sized for another universe";
  if Array.length loads <> c.n_circuits then
    invalid_arg "Ecmp: loads is sized for another universe";
  for x = 0 to Array.length aux - 1 do
    let l, _ = aux.(x) in
    if Array.length l <> c.n_circuits then
      invalid_arg "Ecmp: an aux vector is sized for another universe"
  done

(* Size the per-stage buffers for [c]: the verdict bytes, and the useful
   sets when [useful] (a recorded class keeps its own).  They only grow,
   so a checker allocates them while it meets its largest classes and
   never again. *)
let ensure_stages ~useful sc c =
  let n_stages = Array.length c.stages in
  if useful && Array.length sc.useful < n_stages + 1 then begin
    (* Scratch arrays are sized to the universe's switch count. *)
    let n = Array.length sc.vol in
    sc.useful <- Array.init (n_stages + 1) (fun _ -> Bitset.create n)
  end;
  if Array.length sc.live < n_stages then sc.live <- Array.make n_stages Bytes.empty;
  for k = 0 to n_stages - 1 do
    let m = n_rows c.stages.(k) in
    if Bytes.length sc.live.(k) < m then sc.live.(k) <- Bytes.create m
  done

(* A switch is useful at stage k when the remaining hops can still deliver
   from it over usable circuits — the "feasible shortest paths" ECMP routes
   on.  One step of the backward sweep: decide once per row whether it
   qualifies (usable under the wiring it was compiled for, leading to a
   switch useful at [k + 1]), keep the verdict in [live] for the forward
   passes, and collect the qualifying rows' upstream switches, plus the
   skip switches useful at [k + 1], into [u].  The as-built rows take one
   fused pass inside [Topo] and [Bitset]: under [-opaque] a per-row probe
   from here is an out-of-line call.  That pass leaves every alternative
   row not live, which is its verdict while nothing is rewired; once a
   circuit is, each alternative row is probed here under its own wiring
   ([live] is as long as the rows, [ensure_stages]). *)
let sweep_stage topo stage live ~u ~u' =
  Bitset.clear u;
  Topo.sweep_rows topo ~circuits:stage.circuits ~alt_hi:stage.alt_hi
    ~nexts:stage.nexts ~prevs:stage.prevs ~useful:u' ~into:u live;
  if Array.length stage.alt_hi > 0 && Topo.rewired_count topo > 0 then begin
    let circuits = stage.circuits.ids in
    for i = 0 to Array.length circuits - 1 do
      let alt = Col.get stage.alt_hi i in
      if alt >= 0 then begin
        let j = Col.get circuits i in
        if Topo.usable_wired topo j alt && Bitset.mem u' (alt_next stage i j)
        then begin
          Col.set_byte live i '\001';
          Bitset.add u (alt_prev stage i j)
        end
      end
    done
  end;
  let skips = stage.skip_switches.ids in
  for x = 0 to Array.length skips - 1 do
    let s = skips.(x) in
    if Bitset.mem u' s then Bitset.add u s
  done

(* The whole backward sweep, writing into [dst.(0 .. n_stages)] and
   [sc.live]; [ensure_stages] must have sized the scratch for [c]. *)
let useful_sweep topo sc c dst =
  let n_stages = Array.length c.stages in
  Bitset.fill dst.(n_stages);
  for k = n_stages - 1 downto 0 do
    sweep_stage topo c.stages.(k) sc.live.(k) ~u:dst.(k) ~u':dst.(k + 1)
  done

(* The forward passes below read their arrays from locals and make no
   call per row: under [-opaque] a call would also box every float it
   passes.  The weighted split alone reads each qualifying row's
   capacity through [Topo.capacity]; [aux_add] is inlined, and over an
   empty [aux] it deposits nothing.

   Each reads a row's circuit, then its endpoints at that circuit from
   the universe's columns ([prevs]/[nexts]), which it walks forward, as
   rows come in increasing circuit id.  A stage with alternative rows
   takes a second loop that reads them through [alt_prev]/[alt_next],
   so the drain/undrain loop makes no per-row test of the wiring: one
   loop per pass with that test hoisted (written either as [alt_prev]
   behind a loop-invariant [if] or as a flag-guarded [alt_hi] read)
   made a full evaluation of every D class 8% slower (EXPERIMENTS.md,
   "Rows carry only their circuit").

   Nor do they range-check: every index is a row below the stage's row
   count (its columns' length, at most [Bytes.length live] after
   [ensure_stages]), a column entry (below the universe's counts since
   [stage_of_rows]), an endpoint at a circuit (the universe's columns
   are as long as it has circuits, and their entries below its switch
   count), or a switch in [touched]/[ntouched] (pushed only from such
   ids and recorded entries).  The evaluation's entry check
   ([check_sizes]) matched [sc], [loads] and [aux] to those counts. *)

(* A qualifying row over circuit [j] from a loaded switch [prev]: count
   it (and, for weighted routing configurations, its capacity) unless
   [prev] is a carrier. *)
let[@inline] count_row ~weighted topo ~vol ~cand ~candw j prev =
  if Col.get vol prev > 0.0 && Col.get cand prev >= 0 then begin
    Col.set cand prev (Col.get cand prev + 1);
    if weighted then
      Col.set candw prev (Col.get candw prev +. Topo.capacity topo j)
  end

(* Forward stage, before the deposits: mark the loaded carriers (a
   carrier neither splits nor counts as stuck), then count the
   qualifying rows of every loaded switch (and, for weighted routing
   configurations, their total capacity). *)
let count_stage ~weighted topo sc stage live u' =
  Ivec.clear sc.ntouched;
  let vol = sc.vol and cand = sc.cand and candw = sc.candw in
  let skips = stage.skip_switches.ids in
  for x = 0 to Array.length skips - 1 do
    let s = Col.get skips x in
    if Col.get vol s > 0.0 && Bitset.mem u' s then Col.set cand s (-1)
  done;
  let circuits = stage.circuits.ids and prevs = stage.prevs.ids in
  if Array.length stage.alt_hi = 0 then
    for i = 0 to Array.length circuits - 1 do
      if Col.get_byte live i <> '\000' then begin
        let j = Col.get circuits i in
        count_row ~weighted topo ~vol ~cand ~candw j (Col.get prevs j)
      end
    done
  else
    for i = 0 to Array.length circuits - 1 do
      if Col.get_byte live i <> '\000' then begin
        let j = Col.get circuits i in
        count_row ~weighted topo ~vol ~cand ~candw j (alt_prev stage i j)
      end
    done

(* The deposit of qualifying row [i] over circuit [j] from [prev], which
   holds volume [v] and has qualifying rows, to [next]: its share goes
   into [loads], the [aux] matrices, [record]'s entry [i] and [next]'s
   volume.  Inlined into both row loops of [deposit_stage], so [v] and
   the share are not boxed. *)
let[@inline] deposit_row ~weighted ~aux topo ~cand ~candw ~nvol ~ntouched
    ~loads ~record i j prev next v =
  let share =
    if weighted then v *. Topo.capacity topo j /. Col.get candw prev
    else v /. float_of_int (Col.get cand prev)
  in
  Col.set loads j (Col.get loads j +. share);
  aux_add aux j share;
  (match record with Some r -> Col.set r i share | None -> ());
  if Float.equal (Col.get nvol next) 0.0 then Ivec.push ntouched next;
  Col.set nvol next (Col.get nvol next +. share)

(* Forward stage, the deposits: distribute every loaded switch's volume
   over its qualifying rows — equally under plain ECMP, or proportionally
   to capacity under the temporary routing configurations of §7.1
   (UCMP) — into [loads], the [aux] matrices and the next stage's
   volumes.  [record], one entry per row, receives each row's share. *)
let deposit_stage ~weighted ~aux topo sc stage live ~loads ~record =
  let vol = sc.vol and nvol = sc.nvol and cand = sc.cand in
  let candw = sc.candw and ntouched = sc.ntouched in
  let circuits = stage.circuits.ids in
  let prevs = stage.prevs.ids and nexts = stage.nexts.ids in
  if Array.length stage.alt_hi = 0 then
    for i = 0 to Array.length circuits - 1 do
      if Col.get_byte live i <> '\000' then begin
        let j = Col.get circuits i in
        let prev = Col.get prevs j in
        let v = Col.get vol prev in
        if v > 0.0 && Col.get cand prev > 0 then
          deposit_row ~weighted ~aux topo ~cand ~candw ~nvol ~ntouched ~loads
            ~record i j prev (Col.get nexts j) v
      end
    done
  else
    for i = 0 to Array.length circuits - 1 do
      if Col.get_byte live i <> '\000' then begin
        let j = Col.get circuits i in
        let prev = alt_prev stage i j in
        let v = Col.get vol prev in
        if v > 0.0 && Col.get cand prev > 0 then
          deposit_row ~weighted ~aux topo ~cand ~candw ~nvol ~ntouched ~loads
            ~record i j prev (alt_next stage i j) v
      end
    done

(* Forward stage, after the deposits: carriers keep their volume for the
   next stage; anything loaded with neither qualifying rows nor a carrier
   mark is stuck — the demand constraint of Eq. 4 fails for this
   topology; then the next stage's volumes move into [vol].  Returns
   [stuck] plus this stage's stuck volumes, added in [touched] order. *)
let finish_stage sc stage stuck =
  let vol = sc.vol and nvol = sc.nvol and cand = sc.cand in
  let candw = sc.candw in
  let touched = sc.touched and ntouched = sc.ntouched in
  let skips = stage.skip_switches.ids in
  for x = 0 to Array.length skips - 1 do
    let s = Col.get skips x in
    if Col.get cand s = -1 && Col.get vol s > 0.0 then begin
      if Float.equal (Col.get nvol s) 0.0 then Ivec.push ntouched s;
      Col.set nvol s (Col.get nvol s +. Col.get vol s)
    end
  done;
  let stuck = ref stuck in
  let data = touched.Ivec.data in
  for i = 0 to touched.Ivec.len - 1 do
    let s = Col.get data i in
    if Col.get vol s > 0.0 && Col.get cand s = 0 then
      stuck := !stuck +. Col.get vol s;
    Col.set vol s 0.0;
    Col.set cand s 0;
    Col.set candw s 0.0
  done;
  Ivec.clear touched;
  let data = ntouched.Ivec.data in
  for i = 0 to ntouched.Ivec.len - 1 do
    let s = Col.get data i in
    Col.set vol s (Col.get nvol s);
    Col.set nvol s 0.0;
    Ivec.push touched s
  done;
  !stuck

let load_sources sc c ~scale =
  Ivec.clear sc.touched;
  let sources = c.sources.ids and vol = sc.vol in
  for x = 0 to Array.length sources - 1 do
    let s = Col.get sources x in
    if Float.equal (Col.get vol s) 0.0 then Ivec.push sc.touched s;
    Col.set vol s (Col.get vol s +. (c.source_vols.(x) *. scale))
  done

let is_weighted = function `Capacity_weighted -> true | `Equal -> false

let evaluate ?(scale = 1.0) ?(split = `Equal) ?(aux = [||]) topo sc c ~loads =
  check_sizes topo sc c ~loads aux;
  let weighted = is_weighted split in
  ensure_stages ~useful:true sc c;
  useful_sweep topo sc c sc.useful;
  load_sources sc c ~scale;
  let stuck = ref 0.0 in
  for k = 0 to Array.length c.stages - 1 do
    let stage = c.stages.(k) and live = sc.live.(k) in
    count_stage ~weighted topo sc stage live sc.useful.(k + 1);
    deposit_stage ~weighted ~aux topo sc stage live ~loads ~record:None;
    stuck := finish_stage sc stage !stuck
  done;
  let delivered = ref 0.0 in
  for i = 0 to sc.touched.Ivec.len - 1 do
    let s = Col.get sc.touched.Ivec.data i in
    delivered := !delivered +. Col.get sc.vol s;
    Col.set sc.vol s 0.0
  done;
  Ivec.clear sc.touched;
  { delivered = !delivered; stuck = !stuck }

(* ------------------------------------------------------------------ *)
(* Incremental evaluation.

   The flow a class places on the network is a pure function of the
   usability of its static stage candidates: stage k splits the entering
   volumes over its usable candidates that lead to a useful next-stage
   switch, and usefulness itself is derived from candidate usability
   alone.  So after a topology toggle only three things can move a
   share: a row whose verdict flipped (its switch's qualifying-row count
   moves with it), a skip switch whose carrier test flipped with the
   useful set, and a switch whose entering volume changed.

   [evaluate_patch] finds the flipped rows with a sparse backward sweep.
   A row's usability can change only when its circuit, or an endpoint of
   its circuit under the current wiring, was toggled: so the sweep
   re-judges, on each stage the toggles dirtied, the rows grouped under
   a toggled switch and the rows over a toggled circuit, and on every
   stage the rows entering a switch whose usefulness flipped one stage
   up.  Each record keeps per switch its live-row count, so a flipped
   row moves one count, and a count that reaches or leaves zero (or a
   skip whose usefulness one stage up flipped) is the only way a
   switch's usefulness can flip.  The forward pass then re-splits only
   the switches those touch.  Each stage's record keeps every row's last
   share, so a row whose share comes out unchanged costs no write, and
   each switch's entering volume, so a recomputed volume that comes out
   bit-equal stops the propagation there.  Every recomputed share and
   volume is the dense pass's expression over the same operands in the
   same order, so the records stay bit-equal to a rebuild's; only
   [loads], patched by subtracting a row's old share and adding its new
   one, and the stuck sums drift, by rounding. *)

(* One stage's rows grouped for the delta layer.  The stage's local
   switches ([sw]) are every switch that can enter it — the class's
   sources at stage 0, else the previous stage's next and skip switches
   — plus the stage's own prev and skip switches, numbered in order of
   first appearance; a local id indexes [sw] and a checker's per-switch
   records.  [by_prev] holds the row ids, 4 bytes each, grouped by their
   prev's local id: group [g] is entries [prev_off.(g)] to
   [prev_off.(g + 1) - 1].  [by_next] groups them likewise by their
   next's local id at the next stage's boundary (the last stage's
   boundary is the class's [top_sw]).  Rows keep increasing id order
   within a group — the order in which the dense pass counts capacities
   and sums deposits, which is what makes a sparse recompute bit-equal
   to it.  [carry_dst.(g)] is the next boundary's local id of a skip
   switch [g] of this stage, -1 for a switch that is not one;
   [carry_src] maps back (empty on the last stage); both are empty on a
   stage without skips. *)
type gstage = {
  sw : int array;
  by_prev : Bytes.t;
  prev_off : int array;
  by_next : Bytes.t;
  next_off : int array;
  carry_dst : int array;
  carry_src : int array;
}

type groups = {
  of_class : compiled;
  gstages : gstage array;
  top_sw : int array;  (* the last stage's next and skip switches *)
}

(* Row [i]'s prev and next at [stage], alternatives included. *)
let[@inline] row_prev stage i =
  let j = Col.get stage.circuits.ids i in
  if Array.length stage.alt_hi > 0 then alt_prev stage i j
  else Col.get stage.prevs.ids j

let[@inline] row_next stage i =
  let j = Col.get stage.circuits.ids i in
  if Array.length stage.alt_hi > 0 then alt_next stage i j
  else Col.get stage.nexts.ids j

let[@inline] row_at ids p = Int32.to_int (Col.get_int32 ids (p lsl 2))

(* Switch [s]'s local id in [loc], numbering it next if it has none. *)
let[@inline] number loc members s =
  let l = Col.get loc s in
  if l >= 0 then l
  else begin
    let l = members.Ivec.len in
    Col.set loc s l;
    Ivec.push members s;
    l
  end

(* Number switch [s], row [i]'s prev or next: keep its local id in
   [keys.(i)] and count the row in [count]. *)
let[@inline] key_row loc members ~keys ~count i s =
  let g = number loc members s in
  Col.set keys i g;
  Col.set count g (Col.get count g + 1)

(* A stable counting sort of rows [0, m) by [keys.(i)], a local id below
   [n_keys] that [count] has counted (and is reset to 0 here): the
   packed row ids and the group offsets. *)
let group_by ~n_keys ~keys ~count m =
  let off = Array.make (n_keys + 1) 0 in
  for g = 0 to n_keys - 1 do
    Col.set off (g + 1) (Col.get off g + Col.get count g);
    Col.set count g 0
  done;
  let pos = Array.sub off 0 n_keys and ids = Bytes.create (4 * m) in
  for i = 0 to m - 1 do
    let g = Col.get keys i in
    let p = Col.get pos g in
    Col.set_int32 ids (p lsl 2) (Int32.of_int i);
    Col.set pos g (p + 1)
  done;
  (ids, off)

(* The scratch of [group_rows]: [loc] numbers one stage boundary's
   switches and is -1 elsewhere, the key and count columns hold each
   row's prev and next local ids and each local id's row count, and all
   of it is left as found. *)
type grouping = {
  loc : int array;  (* per universe switch *)
  pkeys : int array;  (* per row of the largest stage *)
  nkeys : int array;
  pcount : int array;  (* per universe switch: local ids stay below *)
  ncount : int array;
}

(* One class's groupings.  The walk moves [loc] one boundary up per
   stage, numbering each stage's prevs as it numbers the boundary, so
   every row is visited four times: its prev numbered and counted, its
   next numbered and counted, and its id placed in each grouping.  Every
   index is a switch id of the class's proved columns (below the
   universe-sized columns' length), a row below the stage's count (below
   the key columns'), or a local id below the boundary's switch count. *)
let group_class w c =
  let n_stages = Array.length c.stages in
  let loc = w.loc in
  let members = Ivec.create () in
  let add s = ignore (number loc members s) in
  let add_ends stage =
    for i = 0 to n_rows stage - 1 do
      key_row loc members ~keys:w.pkeys ~count:w.pcount i (row_prev stage i)
    done;
    Array.iter add stage.skip_switches.ids
  in
  let take () =
    let a = Array.sub members.Ivec.data 0 members.Ivec.len in
    Ivec.clear members;
    a
  in
  let forget sw = Array.iter (fun s -> loc.(s) <- -1) sw in
  let cur = ref [||] and top = ref [||] in
  if n_stages > 0 then begin
    Array.iter add c.sources.ids;
    add_ends c.stages.(0);
    cur := take ()
  end;
  let gstage k stage =
    let sw = !cur and m = n_rows stage and last = k = n_stages - 1 in
    let by_prev, prev_off =
      group_by ~n_keys:(Array.length sw) ~keys:w.pkeys ~count:w.pcount m
    in
    let skips = stage.skip_switches.ids in
    let skip_g = Array.map (fun s -> loc.(s)) skips in
    forget sw;
    for i = 0 to m - 1 do
      key_row loc members ~keys:w.nkeys ~count:w.ncount i (row_next stage i)
    done;
    Array.iter add skips;
    if not last then add_ends c.stages.(k + 1);
    let next = take () in
    let by_next, next_off =
      group_by ~n_keys:(Array.length next) ~keys:w.nkeys ~count:w.ncount m
    in
    let carry_dst, carry_src =
      if Array.length skips = 0 then ([||], [||])
      else begin
        let dst = Array.make (Array.length sw) (-1) in
        let src = if last then [||] else Array.make (Array.length next) (-1) in
        Array.iteri
          (fun x s ->
            dst.(skip_g.(x)) <- loc.(s);
            if not last then src.(loc.(s)) <- skip_g.(x))
          skips;
        (dst, src)
      end
    in
    if last then begin
      forget next;
      top := next
    end
    else cur := next;
    { sw; by_prev; prev_off; by_next; next_off; carry_dst; carry_src }
  in
  let gstages = Array.mapi gstage c.stages in
  { of_class = c; gstages; top_sw = !top }

let group_rows cs ~which =
  if Array.length which <> Array.length cs then
    invalid_arg "Ecmp.group_rows: one flag per class";
  let n = ref 0 and m = ref 0 in
  Array.iteri
    (fun d c ->
      if which.(d) then begin
        n := max !n c.n_switches;
        Array.iter (fun stage -> m := max !m (n_rows stage)) c.stages
      end)
    cs;
  let w =
    {
      loc = Array.make !n (-1);
      pkeys = Array.make !m 0;
      nkeys = Array.make !m 0;
      pcount = Array.make !n 0;
      ncount = Array.make !n 0;
    }
  in
  Array.mapi (fun d c -> if which.(d) then Some (group_class w c) else None) cs

(* One stage's record of the last evaluation: each row's share (0.0
   where it deposited nothing) and verdict, and per local switch its
   live-row count (the live rows it is the prev of, 4 bytes: a stage
   has fewer rows than [group_by]'s 4-byte row ids can count), its
   entering volume and [flags]. *)
type srec = {
  share : float array;
  live : Bytes.t;
  cnt : Bytes.t;
  vol : float array;
  flags : Bytes.t;
  mutable stuck : float;  (* the stage's stuck volume *)
  mutable n_stuck : int;  (* its stuck switches; with none, [stuck] is 0.0 *)
}

(* [flags] bits: the switch's volume is stuck, it carries its volume as
   a skip, it is queued to be re-split, its entering volume is queued to
   be re-summed. *)
let stuck_bit = 1
let carrier_bit = 2
let queued_bit = 4
let vqueued_bit = 8

type inc = {
  ic : compiled;
  gs : gstage array;
  top_sw : int array;
  recs : srec array;  (* one per stage *)
  useful : Bitset.t array;  (* per stage boundary, as of the last evaluation *)
  mutable class_stuck : float;
  mutable valid : bool;
}

(* Every record is sized once, here, to its stage's rows and local
   switches, so no evaluation grows one. *)
let make_inc u c g =
  let n = Universe.n_switches u in
  if n <> c.n_switches || Universe.n_circuits u <> c.n_circuits then
    invalid_arg "Ecmp.make_inc: the class was compiled for another universe";
  if g.of_class != c then
    invalid_arg "Ecmp.make_inc: the groups were built for another class";
  {
    ic = c;
    gs = g.gstages;
    top_sw = g.top_sw;
    recs =
      Array.mapi
        (fun k stage ->
          let m = n_rows stage and l = Array.length g.gstages.(k).sw in
          {
            share = Array.make m 0.0;
            live = Bytes.make m '\000';
            cnt = Bytes.make (4 * l) '\000';
            vol = Array.make l 0.0;
            flags = Bytes.make l '\000';
            stuck = 0.0;
            n_stuck = 0;
          })
        c.stages;
    useful = Array.init (Array.length c.stages + 1) (fun _ -> Bitset.create n);
    class_stuck = 0.0;
    valid = false;
  }

let class_stuck st = st.class_stuck

let[@inline] count (r : srec) g = Int32.to_int (Col.get_int32 r.cnt (g lsl 2))

let[@inline] set_count (r : srec) g n = Col.set_int32 r.cnt (g lsl 2) (Int32.of_int n)

type record = {
  shares : float array;
  verdicts : Bytes.t;
  live_counts : int array;
  volumes : float array;
  useful_switches : int list;
}

let recorded st ~stage =
  let r = st.recs.(stage) in
  {
    shares = Array.copy r.share;
    verdicts = Bytes.copy r.live;
    live_counts = Array.init (Array.length r.vol) (count r);
    volumes = Array.copy r.vol;
    useful_switches = Bitset.to_list st.useful.(stage);
  }

(* What a patch starts its sweep from: the toggled switches, one byte
   per universe switch, and the toggled circuits, each once.  A row's
   usability can only change when its circuit, or an endpoint of its
   circuit under the current wiring, was toggled.  The rows incident to
   a toggled switch are its groups; the rows over a toggled circuit are
   found by circuit, unless a toggled end's groups hold them all: the lo
   end's always, the hi end's on a stage without alternative rows.
   [cut] has room for [make_toggles]'s [capacity] circuits. *)
type toggles = {
  keyed : Bytes.t;
  cut : Ivec.t;  (* the toggled circuits *)
  noted : Bytes.t;  (* per circuit, one bit: in [cut] *)
  lo : int array;  (* the universe's endpoint columns *)
  hi : int array;
}

let make_toggles u ~capacity =
  let lo, hi = Universe.ends u `Up in
  let cut = Ivec.create () in
  Ivec.reserve cut capacity;
  {
    keyed = Bytes.make (Universe.n_switches u) '\000';
    cut;
    noted = Bytes.make ((Universe.n_circuits u + 7) / 8) '\000';
    lo = lo.Col.ids;
    hi = hi.Col.ids;
  }

(* Checked accesses: the ids come from the caller. *)
let note_toggled t ~switches ~circuits =
  for x = 0 to Array.length switches - 1 do
    Bytes.set t.keyed switches.(x) '\001'
  done;
  for x = 0 to Array.length circuits - 1 do
    let j = circuits.(x) in
    if j < 0 || j >= Array.length t.lo then invalid_arg "Ecmp.note_toggled: no such circuit";
    let b = Char.code (Bytes.get t.noted (j lsr 3)) and bit = 1 lsl (j land 7) in
    if b land bit = 0 then begin
      Bytes.set t.noted (j lsr 3) (Char.chr (b lor bit));
      Ivec.push t.cut j
    end
  done

let clear_toggles t =
  Bytes.fill t.keyed 0 (Bytes.length t.keyed) '\000';
  for x = 0 to t.cut.Ivec.len - 1 do
    Bytes.set t.noted (Col.get t.cut.Ivec.data x lsr 3) '\000'
  done;
  Ivec.clear t.cut

(* The patch's scratch: the local-id map over the universe's switches, a
   re-split queue per stage, and lists that hold every local switch of
   the largest boundary.  Sized on the first rebuild, so no patch
   allocates.  Every list is empty between evaluations. *)
let ensure_delta (sc : scratch) st =
  let n = Array.length sc.vol in
  if Array.length sc.loc < n then sc.loc <- Array.make n 0;
  let n_stages = Array.length st.gs in
  let have = Array.length sc.queues in
  if have < n_stages then
    sc.queues <-
      Array.init n_stages (fun k -> if k < have then sc.queues.(k) else Ivec.create ());
  let most = ref (Array.length st.top_sw) in
  for k = 0 to n_stages - 1 do
    let l = Array.length st.gs.(k).sw in
    most := max !most l;
    Ivec.reserve sc.queues.(k) l
  done;
  Ivec.reserve sc.vqueue !most;
  Ivec.reserve sc.fhi !most;
  Ivec.reserve sc.flo !most

(* The dense forward pass from the sources, as [evaluate] runs it,
   filling every stage's record: the entering volume of each local
   switch before the stage splits, each row's share and verdict, each
   switch's live-row count, and each switch's stuck and carrier flags
   before [finish_stage] clears the counts.  Returns the class's stuck
   volume. *)
let forward_record ~weighted ~aux topo (sc : scratch) st ~loads =
  let c = st.ic in
  let stuck = ref 0.0 in
  for k = 0 to Array.length c.stages - 1 do
    let r = st.recs.(k) and gs = st.gs.(k) in
    let sw = gs.sw in
    let stage = c.stages.(k) and live = sc.live.(k) in
    let vol = sc.vol and cand = sc.cand in
    for x = 0 to Array.length sw - 1 do
      Col.set r.vol x (Col.get vol (Col.get sw x))
    done;
    Array.fill r.share 0 (Array.length r.share) 0.0;
    count_stage ~weighted topo sc stage live st.useful.(k + 1);
    deposit_stage ~weighted ~aux topo sc stage live ~loads ~record:(Some r.share);
    let n_stuck = ref 0 in
    for x = 0 to Array.length sw - 1 do
      let s = Col.get sw x in
      let f =
        if Col.get cand s < 0 then carrier_bit
        else if Col.get vol s > 0.0 && Col.get cand s = 0 then begin
          incr n_stuck;
          stuck_bit
        end
        else 0
      in
      Col.set_byte r.flags x (Char.chr f)
    done;
    Bytes.blit live 0 r.live 0 (Bytes.length r.live);
    for g = 0 to Array.length sw - 1 do
      let n = ref 0 in
      for p = Col.get gs.prev_off g to Col.get gs.prev_off (g + 1) - 1 do
        if Col.get_byte r.live (row_at gs.by_prev p) <> '\000' then incr n
      done;
      set_count r g !n
    done;
    let stage_stuck = finish_stage sc stage 0.0 in
    r.stuck <- stage_stuck;
    r.n_stuck <- !n_stuck;
    stuck := !stuck +. stage_stuck
  done;
  for i = 0 to sc.touched.Ivec.len - 1 do
    Col.set sc.vol (Col.get sc.touched.Ivec.data i) 0.0
  done;
  Ivec.clear sc.touched;
  !stuck

let evaluate_rebuild ?(scale = 1.0) ?(split = `Equal) ?(aux = [||]) topo sc st
    ~loads =
  check_sizes topo sc st.ic ~loads aux;
  let weighted = is_weighted split in
  ensure_stages ~useful:false sc st.ic;
  ensure_delta sc st;
  useful_sweep topo sc st.ic st.useful;
  load_sources sc st.ic ~scale;
  let stuck = forward_record ~weighted ~aux topo sc st ~loads in
  st.class_stuck <- stuck;
  st.valid <- true;
  stuck

(* The sparse passes.  Their indexes are row ids from the groupings
   (below the stage's row count, the length of its record's columns),
   the rows' column entries and endpoints as in the dense passes, local
   ids from the groupings or from [sc.loc] (each record is as long as
   its stage has local switches), list entries (local ids), and switch
   ids of the class's columns in the universe-sized [sc.loc] and
   toggles (the entry check matched their length).  [sc.loc] is read
   only at a switch of the boundary it holds: a row's prev at its stage,
   a row's next at the next one. *)

let[@inline] flag (r : srec) g = Char.code (Col.get_byte r.flags g)

let[@inline] set_flag (r : srec) g f = Col.set_byte r.flags g (Char.chr f)

let[@inline] enqueue q r g bit =
  let f = flag r g in
  if f land bit = 0 then begin
    set_flag r g (f lor bit);
    Ivec.push q g
  end

(* Stage [k]'s circuits may have changed usability: bit [k] of [dirty],
   stages from 61 on sharing bit 61. *)
let[@inline] dirty_at dirty k = dirty land (1 lsl min k 61) <> 0

(* Boundary [b]'s switches: stage [b]'s locals, or past the last stage
   the class's top boundary. *)
let boundary_sw st b = if b < Array.length st.gs then st.gs.(b).sw else st.top_sw

(* Point [sc.loc] at boundary [b]'s local ids. *)
let load_locals (sc : scratch) st b =
  if sc.loaded <> b then begin
    let sw = boundary_sw st b and loc = sc.loc in
    for g = 0 to Array.length sw - 1 do
      Col.set loc (Col.get sw g) g
    done;
    sc.loaded <- b
  end

(* Re-judge row [i] of stage [stage] ([r] its record, [useful'] the next
   boundary's set, [q] its re-split queue), as [sweep_stage] judges a
   row: usable under the wiring it stands for and leading to a useful
   switch.  A flipped row takes its fresh byte, moves its prev's live
   count and queues the prev to be re-split, and so to be settled.
   [sc.loc] holds the stage's local ids. *)
let[@inline] rejudge_row topo (sc : scratch) stage (r : srec) useful' q i =
  let alts = Array.length stage.alt_hi > 0 in
  let j = Col.get stage.circuits.ids i in
  let alt = if alts then Col.get stage.alt_hi i else -1 in
  let next = if alts then alt_next stage i j else Col.get stage.nexts.ids j in
  let fresh = Topo.usable_wired topo j alt && Bitset.mem useful' next in
  if not (Bool.equal fresh (Col.get_byte r.live i <> '\000')) then begin
    Col.set_byte r.live i (if fresh then '\001' else '\000');
    let prev = if alts then alt_prev stage i j else Col.get stage.prevs.ids j in
    let h = Col.get sc.loc prev in
    set_count r h (count r h + if fresh then 1 else -1);
    enqueue q r h queued_bit
  end

let rejudge_group topo sc stage r useful' q ids off g =
  for p = Col.get off g to Col.get off (g + 1) - 1 do
    rejudge_row topo sc stage r useful' q (row_at ids p)
  done

(* Re-judge the rows over circuit [j]: the stage's rows come in circuit
   order ([stage_of_rows]), so a binary search finds the first. *)
let rejudge_circuit topo sc stage r useful' q j =
  let circuits = stage.circuits.ids in
  let m = Array.length circuits in
  let lo = ref 0 and hi = ref m in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Col.get circuits mid < j then lo := mid + 1 else hi := mid
  done;
  let i = ref !lo in
  while !i < m && Col.get circuits !i = j do
    rejudge_row topo sc stage r useful' q !i;
    incr i
  done

(* Settle the usefulness at stage [k]'s boundary of each switch in its
   re-split queue [q], as [sweep_stage] decides it: useful when it has a
   live row, or is a skip whose next-boundary self is useful.  Only a
   switch whose live count moved or a skip whose self there flipped can
   flip, and the sweep queued both.  Each switch that flips goes into
   [sc.flo]. *)
let settle (sc : scratch) st k q =
  let gs = st.gs.(k) in
  let u = st.useful.(k) and u' = st.useful.(k + 1) in
  let r = st.recs.(k) in
  for x = 0 to q.Ivec.len - 1 do
    let g = Col.get q.Ivec.data x in
    let s = Col.get gs.sw g in
    let skip = Array.length gs.carry_dst > 0 && Col.get gs.carry_dst g >= 0 in
    let want = count r g > 0 || (skip && Bitset.mem u' s) in
    if not (Bool.equal want (Bitset.mem u s)) then begin
      Bitset.set u s want;
      Ivec.push sc.flo g
    end
  done

(* The sparse backward sweep, from the highest dirty stage down.  On a
   dirty stage it re-judges the rows grouped under a toggled switch, by
   prev at the stage's boundary and by next at the one above (one byte
   read per switch of each, as [load_locals] makes), and the rows over
   each toggled circuit its toggled ends' groups do not hold; on every
   stage, the rows entering a switch whose usefulness flipped
   one boundary up, and a skip whose self there flipped has its carrier
   test re-split and its usefulness settled.  [sc.fhi] holds the
   boundary above's flipped switches and [sc.flo] this one's, and they
   trade places going down.  Leaves every re-split queued in
   [sc.queues] and every list empty. *)
let sweep_sparse topo (sc : scratch) st (t : toggles) ~dirty =
  let c = st.ic in
  let top =
    let rec highest k = if k < 0 || dirty_at dirty k then k else highest (k - 1) in
    highest (Array.length c.stages - 1)
  in
  if top >= 0 then begin
    for k = top downto 0 do
      let dk = dirty_at dirty k in
      if dk || sc.fhi.Ivec.len > 0 then begin
        load_locals sc st k;
        let stage = c.stages.(k) and gs = st.gs.(k) and r = st.recs.(k) in
        let useful' = st.useful.(k + 1) and q = sc.queues.(k) in
        if dk then begin
          let keyed = t.keyed and sw = gs.sw and sw' = boundary_sw st (k + 1) in
          for g = 0 to Array.length sw - 1 do
            if Col.get_byte keyed (Col.get sw g) <> '\000' then
              rejudge_group topo sc stage r useful' q gs.by_prev gs.prev_off g
          done;
          for m = 0 to Array.length sw' - 1 do
            if Col.get_byte keyed (Col.get sw' m) <> '\000' then
              rejudge_group topo sc stage r useful' q gs.by_next gs.next_off m
          done;
          let alts = Array.length stage.alt_hi > 0 and tc = t.cut in
          for x = 0 to tc.Ivec.len - 1 do
            let j = Col.get tc.Ivec.data x in
            if
              not
                (Col.get_byte t.keyed (Col.get t.lo j) <> '\000'
                || ((not alts) && Col.get_byte t.keyed (Col.get t.hi j) <> '\000'))
            then rejudge_circuit topo sc stage r useful' q j
          done
        end;
        let fhi = sc.fhi in
        for x = 0 to fhi.Ivec.len - 1 do
          let m = Col.get fhi.Ivec.data x in
          rejudge_group topo sc stage r useful' q gs.by_next gs.next_off m;
          if Array.length gs.carry_src > 0 then begin
            let g = Col.get gs.carry_src m in
            if g >= 0 then enqueue q r g queued_bit
          end
        done;
        settle sc st k q
      end;
      let ft = sc.fhi in
      sc.fhi <- sc.flo;
      sc.flo <- ft;
      Ivec.clear sc.flo
    done;
    Ivec.clear sc.fhi
  end

(* Set circuit [j]'s bit in [moved]: bit [j land 7] of byte [j lsr 3],
   which the entry check proved in range. *)
let[@inline] mark_moved moved j =
  let b = j lsr 3 in
  Col.set_byte moved b (Char.chr (Char.code (Col.get_byte moved b) lor (1 lsl (j land 7))))

(* Re-split local switch [g] of stage [k] ([r] its record, [rn] the next
   stage's) from its entering volume and its rows' verdicts, exactly as
   [count_stage] and [deposit_stage] would: its qualifying rows are its
   live count, unless it is a carrier or empty; under [`Capacity_weighted]
   their capacity is summed in row order first.  Then each row gets its
   share, patching [loads], the [aux] matrices and the share column
   where it moved, marking its circuit in [moved] and queueing the row's
   next switch to be re-summed.  Then its stuck volume and carrier flag,
   and a carrier's next-stage slot.  Inlined into the queue loop, so no
   float crosses a call. *)
let[@inline] resplit ~weighted ~aux ~last topo (sc : scratch) stage gs
    (r : srec) (rn : srec) useful' ~moved ~loads g =
  let s = Col.get gs.sw g and v = Col.get r.vol g in
  let f0 = flag r g in
  let skip = Array.length gs.carry_dst > 0 && Col.get gs.carry_dst g >= 0 in
  let carrier = skip && v > 0.0 && Bitset.mem useful' s in
  let ids = gs.by_prev and live = r.live and share = r.share in
  let lo = Col.get gs.prev_off g and hi = Col.get gs.prev_off (g + 1) in
  let circuits = stage.circuits.ids in
  let cnt = if v > 0.0 && not carrier then count r g else 0 in
  let w = ref 0.0 in
  if weighted && cnt > 0 then
    for p = lo to hi - 1 do
      let i = row_at ids p in
      if Col.get_byte live i <> '\000' then
        w := !w +. Topo.capacity topo (Col.get circuits i)
    done;
  let nexts = stage.nexts.ids and alts = Array.length stage.alt_hi > 0 in
  for p = lo to hi - 1 do
    let i = row_at ids p in
    let j = Col.get circuits i in
    let fresh =
      if cnt > 0 && Col.get_byte live i <> '\000' then
        if weighted then v *. Topo.capacity topo j /. !w
        else v /. float_of_int cnt
      else 0.0
    in
    let old = Col.get share i in
    if not (Float.equal fresh old) then begin
      Col.set loads j (Col.get loads j -. old +. fresh);
      aux_sub aux j old;
      aux_add aux j fresh;
      Col.set share i fresh;
      mark_moved moved j;
      if not last then begin
        let next = if alts then alt_next stage i j else Col.get nexts j in
        enqueue sc.vqueue rn (Col.get sc.loc next) vqueued_bit
      end
    end
  done;
  let f = ref (f0 land lnot (queued_bit lor carrier_bit lor stuck_bit)) in
  if f0 land stuck_bit <> 0 then begin
    r.stuck <- r.stuck -. v;
    r.n_stuck <- r.n_stuck - 1
  end;
  if v > 0.0 && (not carrier) && cnt = 0 then begin
    r.stuck <- r.stuck +. v;
    r.n_stuck <- r.n_stuck + 1;
    f := !f lor stuck_bit
  end;
  if r.n_stuck = 0 then r.stuck <- 0.0;
  if carrier then f := !f lor carrier_bit;
  set_flag r g !f;
  if skip && (not last) && (carrier || f0 land carrier_bit <> 0) then
    enqueue sc.vqueue rn (Col.get gs.carry_dst g) vqueued_bit

(* Re-sum the entering volume of local switch [m] of the next stage:
   its incoming rows' shares in row order, then what it carries as a
   skip of this stage — [deposit_stage]'s sum, then [finish_stage]'s
   carry.  A volume that moved takes back the stuck volume the old one
   recorded and queues the switch in [qn], the next stage's re-split
   queue. *)
let resum qn gs (r : srec) (rn : srec) m =
  let ids = gs.by_next and share = r.share in
  let sum = ref 0.0 in
  for p = Col.get gs.next_off m to Col.get gs.next_off (m + 1) - 1 do
    sum := !sum +. Col.get share (row_at ids p)
  done;
  if Array.length gs.carry_src > 0 then begin
    let g = Col.get gs.carry_src m in
    if g >= 0 && flag r g land carrier_bit <> 0 then sum := !sum +. Col.get r.vol g
  end;
  let f = flag rn m land lnot vqueued_bit in
  if Float.equal !sum (Col.get rn.vol m) then set_flag rn m f
  else begin
    if f land stuck_bit <> 0 then begin
      rn.stuck <- rn.stuck -. Col.get rn.vol m;
      rn.n_stuck <- rn.n_stuck - 1;
      if rn.n_stuck = 0 then rn.stuck <- 0.0
    end;
    set_flag rn m (f land lnot stuck_bit);
    Col.set rn.vol m !sum;
    enqueue qn rn m queued_bit
  end

(* The sparse forward pass, stage by stage from the bottom: re-split the
   switches queued at the stage (by the sweep, or by the stage below
   when their entering volume moved), then re-sum the next-stage volumes
   they moved, queueing there each that came out different.  A stage
   with an empty queue costs nothing. *)
let patch_forward ~weighted ~aux topo (sc : scratch) st ~moved ~loads =
  let c = st.ic in
  let n_stages = Array.length c.stages in
  let vq = sc.vqueue in
  for k = 0 to n_stages - 1 do
    let q = sc.queues.(k) in
    if q.Ivec.len > 0 then begin
      let stage = c.stages.(k) and gs = st.gs.(k) and r = st.recs.(k) in
      let last = k = n_stages - 1 in
      let rn = if last then r else st.recs.(k + 1) in
      let useful' = st.useful.(k + 1) in
      if not last then load_locals sc st (k + 1);
      for x = 0 to q.Ivec.len - 1 do
        resplit ~weighted ~aux ~last topo sc stage gs r rn useful' ~moved ~loads
          (Col.get q.Ivec.data x)
      done;
      Ivec.clear q;
      if not last then begin
        let qn = sc.queues.(k + 1) in
        for x = 0 to vq.Ivec.len - 1 do
          resum qn gs r rn (Col.get vq.Ivec.data x)
        done
      end;
      Ivec.clear vq
    end
  done

let evaluate_patch ?(split = `Equal) ?(aux = [||]) topo (sc : scratch) st
    ~dirty ~toggled ~moved ~loads =
  if not st.valid then
    invalid_arg "Ecmp.evaluate_patch: no previous evaluation to patch";
  let c = st.ic in
  check_sizes topo sc c ~loads aux;
  if Bytes.length toggled.keyed <> c.n_switches || Array.length toggled.lo <> c.n_circuits
  then
    invalid_arg "Ecmp: the toggles are sized for another universe";
  if Bytes.length moved < (c.n_circuits + 7) / 8 then
    invalid_arg "Ecmp: the moved marks are sized for another universe";
  let weighted = is_weighted split in
  ensure_delta sc st;
  sc.loaded <- -1;
  sweep_sparse topo sc st toggled ~dirty;
  patch_forward ~weighted ~aux topo sc st ~moved ~loads;
  let stuck = ref 0.0 in
  for k = 0 to Array.length c.stages - 1 do
    stuck := !stuck +. st.recs.(k).stuck
  done;
  st.class_stuck <- !stuck;
  !stuck
