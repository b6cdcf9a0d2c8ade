(* Incremental satisfiability state.  Between adjacent topology states the
   checker patches rather than recomputes: toggled blocks are queued by
   [set_block], the task's dependency index maps them to the affected
   demand classes (with a dirty-stage mask each), and only those classes
   are delta-evaluated (Ecmp.evaluate_patch) — the rest keep their load
   contributions verbatim.  Utilization is then one θ scan over the
   patched loads, as on the full path.  When the queued delta is not
   local enough to pay off, everything falls back to a full rebuild. *)
type inc = {
  classes : Ecmp.inc option array;
      (* per compiled class; [None] for a class no block's dependency row
         names, whose loads no toggle can change: a rebuild re-evaluates
         it with the plain [Ecmp.evaluate] and nothing ever patches it *)
  mutable total_stuck : float;
  mutable loads_valid : bool;
  (* blocks toggled since the last demand evaluation *)
  mutable pending : int array;
  mutable pending_len : int;
  masks : int array;  (* per class: union dirty-stage mask, scratch *)
  (* candidate-count cost model for the fallback decision *)
  suffix_cost : float array array;  (* class -> stage -> candidates from stage on *)
  full_cost : float;
  mutable patches_left : int;
}

(* Ensemble evaluation state: one auxiliary load vector per extra matrix
   (matrix 0 rides on the base loads), per-class prebuilt (loads, factor)
   deposit arrays handed straight to Ecmp, and per-matrix stuck volume.
   Flow is linear in class volume, so one ECMP traversal fills every
   matrix's loads, and a class's stuck volume under matrix m is its base
   stuck times the class factor.  Allocated only when the task carries an
   ensemble with k > 1 — the k = 1 path never touches any of this. *)
type ens = {
  xaux : (float array * float) array array;
      (* class -> extra matrix -> (that matrix's loads, class factor):
         exactly the [aux] argument Ecmp takes, prebuilt once *)
  xloads : float array array;  (* extra matrix -> per-circuit loads *)
  xstuck : float array;  (* extra matrix -> stuck volume *)
  need : int;  (* ⌈q·k⌉: matrices a state must be safe under *)
}

(* Demand-evaluation state: the per-circuit loads, the ECMP scratch and
   the optional incremental layer.  Allocated lazily on the first demand
   evaluation — checker creation itself touches only the overlay words,
   which is what makes per-worker (and future per-fork) checkers cheap. *)
type eval_state = {
  loads : float array;
  scratch : Ecmp.scratch;
  inc : inc option;
  ens : ens option;
}

type t = {
  task : Task.t;
  topo : Topo.t;  (* private overlay; universe shared with the task *)
  cur : int array;  (* applied blocks per action type *)
  applied : int array;  (* packed applied-block words, kept by set_block *)
  target : int array;  (* move_to scratch: lowered target state *)
  mutable eval : eval_state option;
  mutable checks : int;
  related : int array option array;  (* funneling neighborhoods, lazy *)
  power_load : float array;  (* active draw per power domain *)
  mutable power_violations : int;  (* domains over capacity *)
  incremental : bool;  (* delta demand evaluation requested *)
}

(* Refresh every so many patches: bounds the float drift the subtract/add
   load patching can accumulate (each refresh recomputes loads from
   zero). *)
let patch_interval = 512

(* Fall back to a rebuild when the estimated delta work exceeds this
   fraction of a full evaluation: near the break-even point the patch's
   bookkeeping (load subtraction, recorded stages) eats the saving, so only
   clearly profitable deltas are worth taking. *)
let fallback_fraction = 0.5

let lowest_bit m =
  let rec go k = if m land (1 lsl k) <> 0 || k >= 62 then k else go (k + 1) in
  go 0

(* Candidate-count cost model shared by the per-patch fallback decision
   and the per-task profitability guard: a full evaluation visits every
   stage candidate of every class ([full_cost]); a patched class re-runs
   the candidates from its lowest dirty stage on ([suffix_cost]). *)
let cost_model (task : Task.t) =
  let suffix_cost =
    Array.map
      (fun (c, _) ->
        let sizes = Ecmp.stage_sizes c in
        let n = Array.length sizes in
        let suffix = Array.make (n + 1) 0.0 in
        for k = n - 1 downto 0 do
          suffix.(k) <- suffix.(k + 1) +. float_of_int sizes.(k)
        done;
        suffix)
      task.Task.compiled
  in
  let full_cost =
    Array.fold_left
      (fun acc (c, _) -> acc +. float_of_int (Ecmp.stage_circuit_count c))
      0.0 task.Task.compiled
  in
  (suffix_cost, full_cost)

(* Below this many stage candidates a full evaluation is already so cheap
   that the delta layer's bookkeeping (pending queues, recorded stages)
   costs more than it saves. *)
let min_full_cost = 1024.0

(* Structural profitability of the delta layer for this task: the mean
   one-block delta estimate over all blocks, against the full-evaluation
   cost.  Planners toggle one block per step, so this is the estimate the
   per-patch fallback test will typically see; when it already exceeds
   the fallback threshold, the "incremental" checker would fall back to
   full rebuilds on most steps while still paying the delta bookkeeping —
   measurably slower than the plain full path (HGRID A/B/C regress to
   0.85–0.96x).  Such tasks skip the delta layer entirely.  The margin is
   wide in practice: one-block ratios are 0.76–0.92 on HGRID A/B/C
   versus 0.33–0.44 on the SSW-forklift and DMAG migrations, where the
   delta layer wins 1.8–2.5x. *)
let delta_profitable (task : Task.t) =
  let suffix_cost, full_cost = cost_model task in
  full_cost >= min_full_cost
  &&
  let n_blocks = Array.length task.Task.blocks in
  n_blocks > 0
  &&
  let total = ref 0.0 in
  Array.iter
    (fun dep ->
      Array.iter
        (fun (d, m) ->
          let suffix = suffix_cost.(d) in
          let r = min (lowest_bit m) (Array.length suffix - 1) in
          total := !total +. suffix.(r))
        dep)
    task.Task.deps;
  !total /. float_of_int n_blocks < fallback_fraction *. full_cost

let make_inc (task : Task.t) =
  let u = Task.universe task in
  let suffix_cost, full_cost = cost_model task in
  let touched = Array.make (Array.length task.Task.compiled) false in
  Array.iter (Array.iter (fun (d, _) -> touched.(d) <- true)) task.Task.deps;
  {
    classes =
      Array.mapi
        (fun d (c, _) -> if touched.(d) then Some (Ecmp.make_inc u c) else None)
        task.Task.compiled;
    total_stuck = 0.0;
    loads_valid = false;
    pending = Array.make 64 0;
    pending_len = 0;
    masks = Array.make (Array.length task.Task.compiled) 0;
    suffix_cost;
    full_cost;
    patches_left = patch_interval;
  }

let make_ens (task : Task.t) en =
  let n_circuits = Universe.n_circuits (Task.universe task) in
  let kx = Ensemble.k en - 1 in
  let xloads = Array.init kx (fun _ -> Array.make n_circuits 0.0) in
  let xaux =
    Array.init
      (Array.length task.Task.compiled)
      (fun d ->
        Array.init kx (fun x ->
            (xloads.(x), Ensemble.factor en ~matrix:(x + 1) ~cls:d)))
  in
  {
    xaux;
    xloads;
    xstuck = Array.make kx 0.0;
    need = Ensemble.need en;
  }

let eval_state ck =
  match ck.eval with
  | Some es -> es
  | None ->
      let es =
        {
          loads = Array.make (Topo.n_circuits ck.topo) 0.0;
          scratch = Ecmp.make_scratch (Topo.universe ck.topo);
          inc =
            (if ck.incremental && delta_profitable ck.task then
               Some (make_inc ck.task)
             else None);
          ens =
            (match ck.task.Task.ensemble with
            | Some en when Ensemble.k en > 1 -> Some (make_ens ck.task en)
            | _ -> None);
        }
      in
      ck.eval <- Some es;
      es

let create ?(incremental = true) (task : Task.t) =
  (* Overlay words only: the universe (switch/circuit/adjacency arrays)
     stays physically shared with the task. *)
  let topo = Topo.copy task.Task.topo in
  let power_load, power_violations =
    match task.Task.power with
    | None -> ([||], 0)
    | Some p ->
        let load = Power.load p topo in
        let violations = ref 0 in
        Array.iteri
          (fun d l -> if l > p.Power.caps.(d) +. 1e-9 then incr violations)
          load;
        (load, !violations)
  in
  {
    task;
    topo;
    cur = Array.make (Action.Set.cardinal task.Task.actions) 0;
    applied = Array.make task.Task.state_word_count 0;
    target = Array.make task.Task.state_word_count 0;
    eval = None;
    checks = 0;
    related = Array.make (Array.length task.Task.blocks) None;
    power_load;
    power_violations;
    incremental;
  }

let task ck = ck.task
let overlay ck = ck.topo

let incremental_active ck = ck.incremental

(* Account a real activity transition of switch [s] against its power
   domain, maintaining the over-capacity domain count. *)
let bump_power ck s ~became_active =
  match ck.task.Task.power with
  | None -> ()
  | Some p ->
      let d = p.Power.domain_of.(s) in
      if d >= 0 then begin
        let cap = p.Power.caps.(d) +. 1e-9 in
        let before = ck.power_load.(d) in
        let after =
          before +. (if became_active then p.Power.draw.(s) else -. p.Power.draw.(s))
        in
        ck.power_load.(d) <- after;
        if before <= cap && after > cap then
          ck.power_violations <- ck.power_violations + 1
        else if before > cap && after <= cap then
          ck.power_violations <- ck.power_violations - 1
      end

let note_pending st b =
  if st.pending_len = Array.length st.pending then begin
    let grown = Array.make (2 * st.pending_len) 0 in
    Array.blit st.pending 0 grown 0 st.pending_len;
    st.pending <- grown
  end;
  st.pending.(st.pending_len) <- b;
  st.pending_len <- st.pending_len + 1

let set_block ck (b : Blocks.t) ~applied =
  let effect =
    if applied then Action.applies b.Blocks.action
    else Action.inverse b.Blocks.action
  in
  (match effect with
  | Action.Set_activity active ->
      Array.iter
        (fun s ->
          if Topo.switch_active ck.topo s <> active then begin
            bump_power ck s ~became_active:active;
            Topo.set_switch_active ck.topo s active
          end)
        b.Blocks.switches;
      Array.iter
        (fun c -> Topo.set_circuit_active ck.topo c active)
        b.Blocks.circuits
  | Action.Set_wiring target ->
      (* An OCS flip: no activity toggles, no power transition — the
         block's circuits atomically retarget their hi endpoint. *)
      Array.iter
        (fun c -> Topo.set_circuit_hi ck.topo c target)
        b.Blocks.circuits);
  let w = b.Blocks.id / 63 and bit = 1 lsl (b.Blocks.id mod 63) in
  ck.applied.(w) <-
    (if applied then ck.applied.(w) lor bit else ck.applied.(w) land lnot bit);
  match ck.eval with
  | Some { inc = Some st; _ } -> note_pending st b.Blocks.id
  | _ -> ()

let power_ok ck = ck.power_violations = 0

let words_equal (a : int array) (b : int array) =
  let n = Array.length a in
  let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
  go 0

(* Reconfigure to state [v]: lower it to applied-block words, and when
   they differ from the current words toggle exactly the symmetric
   difference — per action type, the canonical index range between the
   current and target counts.  Blocks are disjoint, so the toggles
   commute and only differing blocks are ever touched. *)
let move_to ck (v : Compact.t) =
  Task.blit_state_words ck.task v ~into:ck.target;
  if not (words_equal ck.target ck.applied) then
    Array.iteri
      (fun a goal ->
        while ck.cur.(a) < goal do
          let b = ck.task.Task.blocks_by_type.(a).(ck.cur.(a)) in
          set_block ck ck.task.Task.blocks.(b) ~applied:true;
          ck.cur.(a) <- ck.cur.(a) + 1
        done;
        while ck.cur.(a) > goal do
          let b = ck.task.Task.blocks_by_type.(a).(ck.cur.(a) - 1) in
          set_block ck ck.task.Task.blocks.(b) ~applied:false;
          ck.cur.(a) <- ck.cur.(a) - 1
        done)
      v

(* Circuits that absorb the traffic a drained block was carrying: every
   universe circuit incident to a neighbor of the block, except those
   incident to the block itself (those are down with it). *)
let related_circuits ck b =
  match ck.related.(b) with
  | Some circuits -> circuits
  | None ->
      let block = ck.task.Task.blocks.(b) in
      let u = Task.universe ck.task in
      let in_block = Hashtbl.create 16 in
      Array.iter (fun s -> Hashtbl.replace in_block s ()) block.Blocks.switches;
      let neighbors = Hashtbl.create 64 in
      let note_neighbor s j =
        let other = Universe.other_endpoint u j s in
        if not (Hashtbl.mem in_block other) then
          Hashtbl.replace neighbors other ()
      in
      Array.iter
        (fun s -> Universe.iter_incident u s ~f:(note_neighbor s))
        block.Blocks.switches;
      Array.iter
        (fun j ->
          Hashtbl.replace neighbors (Universe.endpoint_lo u j) ();
          Hashtbl.replace neighbors (Universe.endpoint_hi u j) ())
        block.Blocks.circuits;
      (* A rewire moves its circuits' hi endpoints onto the target
         switch: circuits incident to it absorb/shed load too.  The
         target is static in the action payload, so this superset stays
         valid in every wiring state. *)
      (match Action.rewire_target block.Blocks.action with
      | None -> ()
      | Some h -> Hashtbl.replace neighbors h ());
      let acc = Hashtbl.create 256 in
      Hashtbl.iter
        (fun s () ->
          let keep j =
            if
              not
                (Hashtbl.mem in_block (Universe.endpoint_lo u j)
                || Hashtbl.mem in_block (Universe.endpoint_hi u j))
            then Hashtbl.replace acc j ()
          in
          Universe.iter_incident u s ~f:keep)
        neighbors;
      let circuits = Array.of_seq (Hashtbl.to_seq_keys acc) in
      Array.sort Int.compare circuits;
      ck.related.(b) <- Some circuits;
      circuits

let split_of ck =
  match ck.task.Task.routing with
  | `Ecmp -> `Equal
  | `Weighted -> `Capacity_weighted

(* Every utilization read goes through one of [Topo]'s load scans, which
   share one usability gate: a circuit counts toward θ, funneling and
   headroom only when it carries positive load and is usable in the
   current overlay (its own flag and both endpoints active).  Each scan
   is one call, so no capacity is boxed per circuit. *)

(* The θ bound every violation test compares a utilization against. *)
let theta_bound ck = ck.task.Task.theta +. 1e-9

(* Reset the per-matrix accumulators before a from-zero evaluation. *)
let ens_clear x =
  Array.iter (fun l -> Array.fill l 0 (Array.length l) 0.0) x.xloads;
  Array.fill x.xstuck 0 (Array.length x.xstuck) 0.0

(* Fold one class's stuck volume into every extra matrix: stuck scales
   linearly with the class's volume factor, like every other flow
   quantity. *)
let ens_note_stuck x d stuck =
  let xa = x.xaux.(d) in
  for m = 0 to Array.length xa - 1 do
    let _, f = xa.(m) in
    x.xstuck.(m) <- x.xstuck.(m) +. (stuck *. f)
  done

(* Class [d]'s ensemble deposits, as Ecmp's optional [aux]: [None]
   without an ensemble, so that call allocates no option. *)
let aux_of es d = match es.ens with None -> None | Some x -> Some x.xaux.(d)

let note_stuck es d stuck =
  match es.ens with None -> () | Some x -> ens_note_stuck x d stuck

(* The original full evaluation: zero the loads, replay every class.
   Used when the incremental layer is disabled.  With an ensemble, the
   same traversal also fills every extra matrix's loads (Ecmp aux
   deposits) and stuck volumes. *)
let eval_demands_full ck es =
  Array.fill es.loads 0 (Array.length es.loads) 0.0;
  (match es.ens with None -> () | Some x -> ens_clear x);
  let stuck = ref 0.0 in
  let split = split_of ck in
  Array.iteri
    (fun d (compiled, scale) ->
      let r =
        Ecmp.evaluate ~scale ~split ?aux:(aux_of es d) ck.topo es.scratch
          compiled ~loads:es.loads
      in
      note_stuck es d r.Ecmp.stuck;
      stuck := !stuck +. r.Ecmp.stuck)
    ck.task.Task.compiled;
  !stuck

(* Full rebuild of the incremental state: loads from zero, per-class
   recorded stages for the classes a block can touch, the plain
   evaluation (same arithmetic, same class order) for the rest. *)
let refresh ck es st =
  Array.fill es.loads 0 (Array.length es.loads) 0.0;
  (match es.ens with None -> () | Some x -> ens_clear x);
  let split = split_of ck in
  let stuck = ref 0.0 in
  Array.iteri
    (fun d (compiled, scale) ->
      let aux = aux_of es d in
      let class_stuck =
        match st.classes.(d) with
        | Some cls ->
            Ecmp.evaluate_rebuild ~scale ~split ?aux ck.topo es.scratch cls
              ~loads:es.loads
        | None ->
            (Ecmp.evaluate ~scale ~split ?aux ck.topo es.scratch compiled
               ~loads:es.loads)
              .Ecmp.stuck
      in
      note_stuck es d class_stuck;
      stuck := !stuck +. class_stuck)
    ck.task.Task.compiled;
  st.total_stuck <- !stuck;
  st.loads_valid <- true;
  st.pending_len <- 0;
  st.patches_left <- patch_interval;
  !stuck

let eval_incremental ck es st =
  if (not st.loads_valid) || st.patches_left <= 0 then refresh ck es st
  else if st.pending_len = 0 then st.total_stuck
  else begin
    Array.fill st.masks 0 (Array.length st.masks) 0;
    for i = 0 to st.pending_len - 1 do
      Array.iter
        (fun (d, m) -> st.masks.(d) <- st.masks.(d) lor m)
        ck.task.Task.deps.(st.pending.(i))
    done;
    (* Estimated delta work: a patched class re-runs its dirty suffix —
       backward sweep (with early cutoff) plus the two forward passes —
       so roughly the suffix candidate count, in the same units as
       [full_cost] (a full evaluation visits every candidate). *)
    let est = ref 0.0 in
    Array.iteri
      (fun d m ->
        if m <> 0 then begin
          let suffix = st.suffix_cost.(d) in
          let r = min (lowest_bit m) (Array.length suffix - 1) in
          est := !est +. suffix.(r)
        end)
      st.masks;
    if !est >= fallback_fraction *. st.full_cost then refresh ck es st
    else begin
      st.patches_left <- st.patches_left - 1;
      let split = split_of ck in
      let stuck = ref st.total_stuck in
      (* A class with a dirty mask is named in a dependency row, so it
         has an incremental state. *)
      Array.iteri
        (fun d m ->
          match st.classes.(d) with
          | Some cls when m <> 0 ->
              let old = Ecmp.class_stuck cls in
              let _, scale = ck.task.Task.compiled.(d) in
              let fresh =
                Ecmp.evaluate_patch ~scale ~split ?aux:(aux_of es d) ck.topo
                  es.scratch cls ~dirty:m ~loads:es.loads
              in
              (match es.ens with
              | None -> ()
              | Some x -> ens_note_stuck x d (fresh -. old));
              stuck := !stuck -. old +. fresh
          | _ -> ())
        st.masks;
      st.total_stuck <- !stuck;
      st.pending_len <- 0;
      !stuck
    end
  end

let eval_demands ck =
  let es = eval_state ck in
  match es.inc with
  | None -> eval_demands_full ck es
  | Some st -> eval_incremental ck es st

let funneling_ok ck (loads : float array) ~last_block =
  let phi = ck.task.Task.funneling in
  if phi <= 0.0 then true
  else
    match last_block with
    | None -> true
    | Some b ->
        let block = ck.task.Task.blocks.(b) in
        if not (Action.funnels block.Blocks.action) then true
        else
          Topo.funneling_ok ck.topo loads (related_circuits ck b) ~phi
            ~theta:(theta_bound ck)

(* One load vector's demand verdict: nothing stuck, θ (Eq. 5) as one
   scan over every circuit — on the full and the delta path alike — and
   the funneling margin. *)
let safe_under ck (loads : float array) ~stuck ~last_block =
  stuck <= 1e-9
  && Topo.theta_ok ck.topo loads ~theta:(theta_bound ck)
  && funneling_ok ck loads ~last_block

(* The demand-side admission predicate shared by [check] and
   [current_ok].  Single-matrix: the historical stuck/θ/funneling
   conjunction, verbatim.  Ensemble: one evaluation fills every matrix's
   loads; matrix 0 rides on the base machinery, the extras read their
   own vectors, and the state is admitted when at least ⌈q·k⌉ matrices
   are individually safe. *)
let demands_ok ck ~last_block =
  let stuck = eval_demands ck in
  let es = eval_state ck in
  match es.ens with
  | None -> safe_under ck es.loads ~stuck ~last_block
  | Some x ->
      let safe = ref 0 in
      if safe_under ck es.loads ~stuck ~last_block then incr safe;
      for m = 0 to Array.length x.xloads - 1 do
        if safe_under ck x.xloads.(m) ~stuck:x.xstuck.(m) ~last_block then
          incr safe
      done;
      !safe >= x.need

let check ?last_block ck v =
  move_to ck v;
  ck.checks <- ck.checks + 1;
  Topo.ports_ok ck.topo && power_ok ck && demands_ok ck ~last_block

let checks_performed ck = ck.checks

let apply_block ck b = set_block ck ck.task.Task.blocks.(b) ~applied:true
let unapply_block ck b = set_block ck ck.task.Task.blocks.(b) ~applied:false

let current_ok ?last_block ck =
  ck.checks <- ck.checks + 1;
  Topo.ports_ok ck.topo && power_ok ck && demands_ok ck ~last_block

(* Residual headroom of one load vector: the minimum over loaded usable
   circuits of (θ·W − load)/W; [neg_infinity] exactly when [safe_under]
   rejects the vector, so the margin and the admission verdict cannot
   disagree. *)
let residual_on ck (loads : float array) ~stuck ~last_block =
  if not (safe_under ck loads ~stuck ~last_block) then neg_infinity
  else Topo.min_residual ck.topo loads ~theta:ck.task.Task.theta

let current_min_residual ?last_block ck =
  if not (Topo.ports_ok ck.topo && power_ok ck) then neg_infinity
  else begin
    ck.checks <- ck.checks + 1;
    let stuck = eval_demands ck in
    let es = eval_state ck in
    match es.ens with
    | None -> residual_on ck es.loads ~stuck ~last_block
    | Some x ->
        (* The quantile residual: admission needs ⌈q·k⌉ safe matrices,
           so the MRC objective is the worst headroom among the best
           ⌈q·k⌉ — [neg_infinity] exactly when admission fails, and at
           q = 1.0 the minimum over all matrices. *)
        let kx = Array.length x.xloads in
        let res = Array.make (kx + 1) (residual_on ck es.loads ~stuck ~last_block) in
        for m = 0 to kx - 1 do
          res.(m + 1) <-
            residual_on ck x.xloads.(m) ~stuck:x.xstuck.(m) ~last_block
        done;
        Array.sort (fun a b -> Float.compare b a) res;
        res.(x.need - 1)
  end

let check_plan (task : Task.t) blocks =
  let ck = create task in
  let n = Array.length task.Task.blocks in
  let seen = Array.make n false in
  let exception Bad of string in
  try
    if List.length blocks <> n then
      raise (Bad (Printf.sprintf "plan has %d steps, task has %d blocks"
                    (List.length blocks) n));
    let last = ref None in
    let cost = ref 0.0 in
    List.iter
      (fun b ->
        if b < 0 || b >= n then raise (Bad (Printf.sprintf "bad block id %d" b));
        if seen.(b) then
          raise (Bad (Printf.sprintf "block %d operated twice" b));
        seen.(b) <- true;
        let a = Task.block_type task b in
        cost :=
          !cost
          +. Cost.step ~alpha:task.Task.alpha ?weights:task.Task.type_weights
               ~last:!last a;
        last := Some a;
        apply_block ck b;
        if not (current_ok ~last_block:b ck) then
          raise
            (Bad
               (Printf.sprintf "constraints violated after block %d (%s)" b
                  task.Task.blocks.(b).Blocks.label)))
      blocks;
    Ok !cost
  with Bad msg -> Error msg

type summary = {
  max_util : float;
  stuck : float;
  port_violations : int;
  hottest : (int * float) list;
}

let evaluate_current ck =
  let stuck = eval_demands ck in
  let es = eval_state ck in
  (* Bounded top-5 scan: one pass, no list of all loaded circuits, and
     the same usability gate as the θ checks. *)
  let top_j = Array.make 5 (-1) in
  let top_u = Array.make 5 neg_infinity in
  Topo.hottest ck.topo es.loads top_j top_u;
  let hottest = ref [] in
  for k = 4 downto 0 do
    if top_j.(k) >= 0 then hottest := (top_j.(k), top_u.(k)) :: !hottest
  done;
  {
    max_util = (if top_j.(0) >= 0 then top_u.(0) else 0.0);
    stuck;
    port_violations = Topo.port_violation_count ck.topo;
    hottest = !hottest;
  }
