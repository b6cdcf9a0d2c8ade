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
   universe once, here, [alt_hi] must be empty or one entry per row, and
   the endpoint columns are [u]'s, [n_circuits] long and bounded by
   [n_switches] ([Universe.create_packed] proved them). *)
let stage_of_rows u c (r : rows) =
  let n_rows = Array.length r.circuits in
  if Array.length r.alt_hi <> n_rows && Array.length r.alt_hi <> 0 then
    invalid_arg "Ecmp: a stage's columns differ in length";
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
  mutable useful : Bitset.t array;  (* stage index -> useful switches *)
  mutable live : Bytes.t array;
      (* stage index -> one byte per row: does the row qualify?  Written
         by the backward sweep, read by the forward passes. *)
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
  }

type result = { delivered : float; stuck : float }

(* Growable (circuit/switch id, value) store.  [push] is inlined into
   the per-row loops: a call would box the value. *)
module Fvec = struct
  type t = { mutable js : int array; mutable vs : float array; mutable len : int }

  (* Room for [n] pushes (at least one) before the first [grow]. *)
  let create n =
    let n = max 1 n in
    { js = Array.make n 0; vs = Array.make n 0.0; len = 0 }

  let clear f = f.len <- 0

  let grow f =
    let js = Array.make (2 * f.len) 0 and vs = Array.make (2 * f.len) 0.0 in
    Array.blit f.js 0 js 0 f.len;
    Array.blit f.vs 0 vs 0 f.len;
    f.js <- js;
    f.vs <- vs

  (* [js] and [vs] are equally long and never empty: as in [Ivec.push]. *)
  let[@inline] push f j v =
    if f.len = Array.length f.js then grow f;
    Col.set f.js f.len j;
    Col.set f.vs f.len v;
    f.len <- f.len + 1
end

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
   deposited (same operands), so a patch's stale-share removal cancels
   exactly as it does on the base loads. *)
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

(* Size the per-stage buffers for [c].  They only grow, so a checker
   allocates them while it meets its largest classes and never again. *)
let ensure_stages sc c =
  let n_stages = Array.length c.stages in
  if Array.length sc.useful < n_stages + 1 then begin
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

(* The deposit of a qualifying row over circuit [j] from [prev], which
   holds volume [v] and has qualifying rows, to [next]: its share goes
   into [loads], the [aux] matrices, [record] and [next]'s volume.
   Inlined into both row loops of [deposit_stage], so [v] and the share
   are not boxed. *)
let[@inline] deposit_row ~weighted ~aux topo ~cand ~candw ~nvol ~ntouched
    ~loads ~record j prev next v =
  let share =
    if weighted then v *. Topo.capacity topo j /. Col.get candw prev
    else v /. float_of_int (Col.get cand prev)
  in
  Col.set loads j (Col.get loads j +. share);
  aux_add aux j share;
  (match record with Some r -> Fvec.push r j share | None -> ());
  if Float.equal (Col.get nvol next) 0.0 then Ivec.push ntouched next;
  Col.set nvol next (Col.get nvol next +. share)

(* Forward stage, the deposits: distribute every loaded switch's volume
   over its qualifying rows — equally under plain ECMP, or proportionally
   to capacity under the temporary routing configurations of §7.1
   (UCMP) — into [loads], the [aux] matrices and the next stage's
   volumes.  [record] receives each (circuit, share) deposit. *)
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
            ~record j prev (Col.get nexts j) v
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
            ~record j prev (alt_next stage i j) v
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
  ensure_stages sc c;
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
   alone.  So when topology toggles are confined to stages >= r — and the
   useful sets consulted by stages < r are unchanged — the first r stages
   would recompute the exact same floats.  [evaluate_patch] exploits
   this: it keeps, per stage, the entering volumes, the per-circuit
   shares and the stuck volume of the last evaluation, re-runs only the
   suffix, and patches the aggregate [loads] by subtracting the stale
   suffix shares and adding the fresh ones. *)

type srec = {
  entry : Fvec.t;  (* (switch, volume) entering this stage *)
  contrib : Fvec.t;  (* (circuit, share) placed by this stage *)
  mutable srec_stuck : float;
}

type inc = {
  ic : compiled;
  recs : srec array;  (* one per stage *)
  usnap : Bitset.t array;  (* useful sets of the last evaluation *)
  mutable class_stuck : float;
  mutable valid : bool;
}

(* A stage deposits at most one share per row, so a contribution record
   sized to the stage's row count never grows.  Entry records start
   small and grow to the most switches a stage has seen enter it. *)
let make_inc u c =
  let n = Universe.n_switches u in
  if n <> c.n_switches || Universe.n_circuits u <> c.n_circuits then
    invalid_arg "Ecmp.make_inc: the class was compiled for another universe";
  {
    ic = c;
    recs =
      Array.map
        (fun stage ->
          {
            entry = Fvec.create 16;
            contrib = Fvec.create (n_rows stage);
            srec_stuck = 0.0;
          })
        c.stages;
    usnap = Array.init (Array.length c.stages + 1) (fun _ -> Bitset.create n);
    class_stuck = 0.0;
    valid = false;
  }

let class_stuck st = st.class_stuck

(* Forward pass over stages [from_ .. n-1].  Entering volumes are already
   in [sc.vol]/[sc.touched]; useful sets are read from [st.usnap] and row
   verdicts from [sc.live], which the backward sweep filled for every
   stage from [from_] on.  The arithmetic mirrors [evaluate] exactly — the
   recording is the only addition — so a rebuild computes the same loads
   as the plain path. *)
let forward_record ~weighted ~from_ ~aux topo sc st ~loads =
  let c = st.ic in
  let suffix_stuck = ref 0.0 in
  for k = from_ to Array.length c.stages - 1 do
    let sr = st.recs.(k) in
    let entry = sr.entry and vol = sc.vol in
    let touched = sc.touched.Ivec.data in
    Fvec.clear entry;
    for i = 0 to sc.touched.Ivec.len - 1 do
      let s = Col.get touched i in
      Fvec.push entry s (Col.get vol s)
    done;
    Fvec.clear sr.contrib;
    let stage = c.stages.(k) and live = sc.live.(k) in
    count_stage ~weighted topo sc stage live st.usnap.(k + 1);
    deposit_stage ~weighted ~aux topo sc stage live ~loads
      ~record:(Some sr.contrib);
    let stage_stuck = finish_stage sc stage 0.0 in
    sr.srec_stuck <- stage_stuck;
    suffix_stuck := !suffix_stuck +. stage_stuck
  done;
  for i = 0 to sc.touched.Ivec.len - 1 do
    Col.set sc.vol (Col.get sc.touched.Ivec.data i) 0.0
  done;
  Ivec.clear sc.touched;
  !suffix_stuck

let evaluate_rebuild ?(scale = 1.0) ?(split = `Equal) ?(aux = [||]) topo sc st
    ~loads =
  check_sizes topo sc st.ic ~loads aux;
  let weighted = is_weighted split in
  ensure_stages sc st.ic;
  useful_sweep topo sc st.ic st.usnap;
  load_sources sc st.ic ~scale;
  let stuck =
    forward_record ~weighted ~from_:0 ~aux topo sc st ~loads
  in
  st.class_stuck <- stuck;
  st.valid <- true;
  stuck

let evaluate_patch ?(scale = 1.0) ?(split = `Equal) ?(aux = [||]) topo sc st
    ~dirty ~loads =
  if not st.valid then
    invalid_arg "Ecmp.evaluate_patch: no previous evaluation to patch";
  let c = st.ic in
  check_sizes topo sc c ~loads aux;
  let weighted = is_weighted split in
  let n_stages = Array.length c.stages in
  ensure_stages sc c;
  let r_dirty =
    let rec lowest k =
      if k >= n_stages || dirty land (1 lsl k) <> 0 then k else lowest (k + 1)
    in
    lowest 0
  in
  (* Backward usefulness sweep with early cutoff: below the lowest dirty
     stage the per-stage transfer function is unchanged since the
     snapshot, so once a freshly computed set equals its snapshot every
     earlier set is provably unchanged too and keeps its snapshot.  The
     forward pass below starts at or above the stage the sweep stopped
     at, so every stage it reads has fresh row verdicts. *)
  Bitset.fill sc.useful.(n_stages);
  let unchanged_below = ref 0 in
  (let k = ref (n_stages - 1) in
   let stop = ref false in
   while (not !stop) && !k >= 0 do
     let u = sc.useful.(!k) in
     sweep_stage topo c.stages.(!k) sc.live.(!k) ~u ~u':sc.useful.(!k + 1);
     if !k <= r_dirty && Bitset.equal u st.usnap.(!k) then begin
       unchanged_below := !k;
       stop := true
     end
     else decr k
   done);
  (* Forward stage k consults useful.(k+1): the prefix [0 .. r-1] can only
     be reused when useful.(1 .. r) is unchanged. *)
  let minchg = ref (n_stages + 1) in
  for i = n_stages downto max 1 !unchanged_below do
    if not (Bitset.equal sc.useful.(i) st.usnap.(i)) then minchg := i
  done;
  for i = !unchanged_below to n_stages do
    let u = sc.useful.(i) in
    sc.useful.(i) <- st.usnap.(i);
    st.usnap.(i) <- u
  done;
  let r = max 0 (min r_dirty (!minchg - 1)) in
  (* Stale shares come off the loads in one pass over each re-run stage's
     recorded contributions. *)
  for k = r to n_stages - 1 do
    let ctr = st.recs.(k).contrib in
    let js = ctr.Fvec.js and vs = ctr.Fvec.vs in
    for i = 0 to ctr.Fvec.len - 1 do
      let j = Col.get js i in
      Col.set loads j (Col.get loads j -. Col.get vs i);
      aux_sub aux j (Col.get vs i)
    done
  done;
  let prefix_stuck = ref 0.0 in
  for k = 0 to r - 1 do
    prefix_stuck := !prefix_stuck +. st.recs.(k).srec_stuck
  done;
  if r = 0 then load_sources sc c ~scale
  else begin
    Ivec.clear sc.touched;
    let e = st.recs.(r).entry in
    for i = 0 to e.Fvec.len - 1 do
      let s = Col.get e.Fvec.js i in
      Col.set sc.vol s (Col.get e.Fvec.vs i);
      Ivec.push sc.touched s
    done
  end;
  let suffix_stuck = forward_record ~weighted ~from_:r ~aux topo sc st ~loads in
  st.class_stuck <- !prefix_stuck +. suffix_stuck;
  st.class_stuck
