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
  safe : bool array;  (* matrix -> the last verdict found it safe *)
  need : int;  (* ⌈q·k⌉: matrices a state must be safe under *)
}

(* The delta layer, when it is on.  Between adjacent topology states it
   patches rather than recomputes: [set_block] ORs a toggled block's
   dependency row (the demand classes it affects, with a dirty-stage
   mask each) into [masks], notes the block's switches and circuits in
   [toggles] and marks every circuit whose usability the toggle can flip
   in [marks].  The next evaluation delta-evaluates only the dirty
   classes (Ecmp.evaluate_patch, from the toggled switches and circuits
   over the rows the task grouped for them), which marks every circuit
   whose load it wrote — the rest keep their load contributions verbatim.  θ is then
   kept, not scanned: each load vector keeps one over-θ bit per circuit
   and their count, and every evaluation re-judges the marked circuits
   ([Topo.theta_rejudge]), whatever its verdict, since ports or power
   rejections skip evaluations and let toggles pile up between two.  A
   rebuild re-counts every circuit. *)
type delta = {
  masks : int array;  (* per class: stages dirtied since the last evaluation *)
  toggles : Ecmp.toggles;  (* switches and circuits toggled since *)
  marks : Bytes.t;  (* circuits whose θ verdict may have moved since *)
  over : Bytes.t array;  (* per load vector: one over-θ bit per circuit *)
  n_over : int array;  (* per load vector: its circuits over θ *)
}

(* Demand-evaluation state: the per-circuit loads, the ECMP scratch and
   the delta layer.  Allocated lazily on the first demand evaluation —
   checker creation itself touches only the overlay words, which is what
   makes a checker cheap to build.  Without the
   delta layer every evaluation is a rebuild, and θ one early-exit scan
   per load vector. *)
type eval_state = {
  loads : float array;
  scratch : Ecmp.scratch;
  classes : Ecmp.inc option array;
      (* per compiled class: its recorded stages when the delta layer is
         on and some block's dependency row names the class; [None]
         otherwise — a rebuild evaluates it with the plain
         [Ecmp.evaluate] and nothing ever patches it *)
  delta : delta option;
  vecs : float array array;  (* the load vectors: [loads], then each extra matrix's *)
  mutable stuck : float;  (* total stuck volume of the current loads *)
  mutable patches_left : int;  (* patches before a rebuild; 0 rebuilds next *)
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

(* Rebuild every so many patches: bounds the float drift the subtract/add
   load patching can accumulate (each rebuild recomputes loads from
   zero). *)
let patch_interval = 512

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
    safe = Array.make (kx + 1) false;
    need = Ensemble.need en;
  }

let eval_state ck =
  match ck.eval with
  | Some es -> es
  | None ->
      let task = ck.task in
      let u = Topo.universe ck.topo in
      let n_classes = Array.length task.Task.compiled in
      let on = ck.incremental && Task.delta_profitable task in
      let loads = Array.make (Topo.n_circuits ck.topo) 0.0 in
      let ens =
        match task.Task.ensemble with
        | Some en when Ensemble.k en > 1 -> Some (make_ens task en)
        | _ -> None
      in
      let vecs =
        match ens with None -> [| loads |] | Some x -> Array.append [| loads |] x.xloads
      in
      let es =
        {
          loads;
          scratch = Ecmp.make_scratch u;
          classes =
            Array.mapi
              (fun d (c, _) ->
                match task.Task.groups.(d) with
                | Some g when on -> Some (Ecmp.make_inc u c g)
                | _ -> None)
              task.Task.compiled;
          delta =
            (if on then
               Some
                 {
                   masks = Array.make n_classes 0;
                   toggles =
                     Ecmp.make_toggles u
                       ~capacity:
                         (Array.fold_left
                            (fun n (b : Blocks.t) -> n + Array.length b.Blocks.circuits)
                            0 task.Task.blocks);
                   marks = Topo.circuit_marks ck.topo;
                   over = Array.map (fun _ -> Topo.circuit_marks ck.topo) vecs;
                   n_over = Array.make (Array.length vecs) 0;
                 }
             else None);
          vecs;
          stuck = 0.0;
          patches_left = 0;
          ens;
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
  | Some { delta = Some dl; _ } ->
      let dep = ck.task.Task.deps.(b.Blocks.id) in
      for i = 0 to Array.length dep - 1 do
        let d, m = dep.(i) in
        dl.masks.(d) <- dl.masks.(d) lor m
      done;
      let switches = b.Blocks.switches and circuits = b.Blocks.circuits in
      Ecmp.note_toggled dl.toggles ~switches ~circuits;
      Topo.mark_touched ck.topo dl.marks ~switches ~circuits
  | _ -> ()

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

(* Evaluate every class from zero: the loads, the stuck volumes and the
   recorded stages of each class the delta layer keeps, the plain
   evaluation (same arithmetic, same class order) for the rest.  With an
   ensemble, the same traversal also fills every extra matrix's loads
   (Ecmp aux deposits) and stuck volumes.  The delta layer then counts
   every circuit over θ afresh and forgets what toggles left pending. *)
let rebuild ck es =
  Array.fill es.loads 0 (Array.length es.loads) 0.0;
  (match es.ens with None -> () | Some x -> ens_clear x);
  let split = split_of ck in
  let stuck = ref 0.0 in
  Array.iteri
    (fun d (compiled, scale) ->
      let aux = aux_of es d in
      let class_stuck =
        match es.classes.(d) with
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
  es.stuck <- !stuck;
  match es.delta with
  | None -> es.patches_left <- 0
  | Some dl ->
      Array.fill dl.masks 0 (Array.length dl.masks) 0;
      Ecmp.clear_toggles dl.toggles;
      Bytes.fill dl.marks 0 (Bytes.length dl.marks) '\000';
      let theta = theta_bound ck in
      for v = 0 to Array.length es.vecs - 1 do
        dl.n_over.(v) <- Topo.theta_count ck.topo es.vecs.(v) ~theta ~over:dl.over.(v)
      done;
      es.patches_left <- patch_interval

(* Delta-evaluate the classes toggles dirtied since the last evaluation,
   then re-judge θ on every circuit they or the patches marked.  A dirty
   class is named in a dependency row, so it has recorded stages. *)
let patch ck es dl =
  let split = split_of ck in
  let patched = ref false in
  for d = 0 to Array.length dl.masks - 1 do
    let m = dl.masks.(d) in
    match es.classes.(d) with
    | Some cls when m <> 0 ->
        let old = Ecmp.class_stuck cls in
        let fresh =
          Ecmp.evaluate_patch ~split ?aux:(aux_of es d) ck.topo es.scratch cls
            ~dirty:m ~toggled:dl.toggles ~moved:dl.marks ~loads:es.loads
        in
        (match es.ens with
        | None -> ()
        | Some x -> ens_note_stuck x d (fresh -. old));
        es.stuck <- es.stuck -. old +. fresh;
        dl.masks.(d) <- 0;
        patched := true
    | _ -> ()
  done;
  Ecmp.clear_toggles dl.toggles;
  Topo.theta_rejudge ck.topo ~marks:dl.marks ~loads:es.vecs ~over:dl.over
    ~n_over:dl.n_over ~theta:(theta_bound ck);
  if !patched then es.patches_left <- es.patches_left - 1

let eval_demands ck =
  let es = eval_state ck in
  (match es.delta with
  | Some dl when es.patches_left > 0 -> patch ck es dl
  | _ -> rebuild ck es);
  es

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

type verdict = Admitted | Ports | Power | Stuck | Theta | Funneling | Quantile

let verdict_name = function
  | Admitted -> "admitted"
  | Ports -> "port bound"
  | Power -> "power"
  | Stuck -> "stuck volume"
  | Theta -> "theta"
  | Funneling -> "funneling"
  | Quantile -> "ensemble quantile"

(* Load vector [v] keeps every circuit within θ (Eq. 5): with the delta
   layer, its count of circuits over θ is zero; without, one early-exit
   scan over every circuit. *)
let theta_holds ck es v =
  match es.delta with
  | Some dl -> dl.n_over.(v) = 0
  | None -> Topo.theta_ok ck.topo es.vecs.(v) ~theta:(theta_bound ck)

(* Load vector [v]'s demand verdict: nothing stuck, θ, and the funneling
   margin. *)
let demand_verdict ck es v ~stuck ~last_block =
  if not (stuck <= 1e-9) then Stuck
  else if not (theta_holds ck es v) then Theta
  else if not (funneling_ok ck es.vecs.(v) ~last_block) then Funneling
  else Admitted

(* Record whether ensemble matrix [m] is safe under its loads. *)
let matrix_safe ck es x m ~stuck ~last_block =
  let ok =
    match demand_verdict ck es m ~stuck ~last_block with
    | Admitted -> true
    | _ -> false
  in
  x.safe.(m) <- ok;
  ok

(* The one admission decision.  Ports and power are counters the
   overlay keeps; demands evaluate once.  Ensemble: one evaluation fills
   every matrix's loads; matrix 0 rides on the base loads, the extras
   read their own vectors, and the state is admitted when at least
   ⌈q·k⌉ matrices are individually safe. *)
let verdict ?last_block ck =
  if not (Topo.ports_ok ck.topo) then Ports
  else if ck.power_violations <> 0 then Power
  else
    let es = eval_demands ck in
    match es.ens with
    | None -> demand_verdict ck es 0 ~stuck:es.stuck ~last_block
    | Some x ->
        let safe =
          ref (Bool.to_int (matrix_safe ck es x 0 ~stuck:es.stuck ~last_block))
        in
        for m = 1 to Array.length x.safe - 1 do
          if matrix_safe ck es x m ~stuck:x.xstuck.(m - 1) ~last_block then
            incr safe
        done;
        if !safe >= x.need then Admitted else Quantile

let checks_performed ck = ck.checks

let theta_kept ck =
  match ck.eval with
  | Some ({ delta = Some dl; _ } as es) ->
      Array.mapi (fun v l -> (Array.copy l, dl.n_over.(v))) es.vecs
  | _ -> [||]

let current_ok ?last_block ck =
  ck.checks <- ck.checks + 1;
  match verdict ?last_block ck with Admitted -> true | _ -> false

let check ?last_block ck v =
  move_to ck v;
  current_ok ?last_block ck

let apply_block ck b = set_block ck ck.task.Task.blocks.(b) ~applied:true
let unapply_block ck b = set_block ck ck.task.Task.blocks.(b) ~applied:false

(* The verdict's margin: the minimum over loaded usable circuits of
   (θ·W − load)/W when admitted, [neg_infinity] otherwise.  Under an
   ensemble, the worst headroom among the best ⌈q·k⌉ matrices, an unsafe
   matrix reading [neg_infinity]: at q = 1.0 the minimum over all
   matrices. *)
let current_min_residual ?last_block ck =
  match verdict ?last_block ck with
  | Ports | Power -> neg_infinity
  | Stuck | Theta | Funneling | Quantile ->
      ck.checks <- ck.checks + 1;
      neg_infinity
  | Admitted -> (
      ck.checks <- ck.checks + 1;
      let es = eval_state ck in
      let theta = ck.task.Task.theta in
      match es.ens with
      | None -> Topo.min_residual ck.topo es.loads ~theta
      | Some x ->
          let res =
            Array.mapi
              (fun m ok ->
                if not ok then neg_infinity
                else
                  Topo.min_residual ck.topo
                    (if m = 0 then es.loads else x.xloads.(m - 1))
                    ~theta)
              x.safe
          in
          Array.sort (fun a b -> Float.compare b a) res;
          res.(x.need - 1))

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
        match verdict ~last_block:b ck with
        | Admitted -> ()
        | v ->
            raise
              (Bad
                 (Printf.sprintf "constraints violated after block %d (%s): %s"
                    b task.Task.blocks.(b).Blocks.label (verdict_name v))))
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
  let es = eval_demands ck in
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
    stuck = es.stuck;
    port_violations = Topo.port_violation_count ck.topo;
    hottest = !hottest;
  }
