type t = {
  name : string;
  topo : Topo.t;
  blocks : Blocks.t array;
  actions : Action.Set.t;
  blocks_by_type : int array array;
  counts : int array;
  demands : Demand.t list;
  compiled : (Ecmp.compiled * float) array;
  theta : float;
  alpha : float;
  funneling : float;
  routing : [ `Ecmp | `Weighted ];
  type_weights : float array option;
  power : Power.t option;
  adds_layer : bool;
  ensemble : Ensemble.t option;
  deps : (int * int) array array;
  groups : Ecmp.groups option array;
  state_word_count : int;
  block_prefix : int array array array;
}

(* The block→demand dependency index: a class's flow depends only on the
   usability of its static stage candidates (see Ecmp.iter_candidates), so
   block [b] can affect class [d] only where b's switches or circuits meet
   d's candidates.  [deps.(b)] lists each such class with a bitmask of the
   stages involved (bit k = stage k; stages beyond the mask width collapse
   into the top bit, conservatively).

   Blocks are disjoint ([Blocks.validate]), so each switch and circuit has
   at most one owning block, recorded once in an owner array; one
   [Ecmp.owner_masks] call per class then ORs every row's stage bit into
   its owners' accumulators.  Classes walk d = n_classes-1 downto 0
   prepending, so each block's pair list comes out in increasing d
   order. *)
let build_deps topo blocks compiled =
  let n_blocks = Array.length blocks in
  let owners n ids =
    let owner = Array.make n (-1) in
    Array.iteri
      (fun b blk ->
        Array.iter
          (fun x ->
            if owner.(x) >= 0 then
              invalid_arg "Task: an element belongs to two blocks";
            owner.(x) <- b)
          (ids blk))
      blocks;
    owner
  in
  let switch_owner =
    owners (Topo.n_switches topo) (fun (b : Blocks.t) -> b.Blocks.switches)
  and circuit_owner =
    owners (Topo.n_circuits topo) (fun (b : Blocks.t) -> b.Blocks.circuits)
  in
  let masks = Array.make n_blocks 0 in
  let pairs = Array.make n_blocks [] in
  for d = Array.length compiled - 1 downto 0 do
    Array.fill masks 0 n_blocks 0;
    Ecmp.owner_masks (fst compiled.(d)) ~switch_owner ~circuit_owner ~into:masks;
    Array.iteri
      (fun b m -> if m <> 0 then pairs.(b) <- (d, m) :: pairs.(b))
      masks
  done;
  Array.map Array.of_list pairs

let lowest_bit m =
  let k = ref 0 in
  while m land (1 lsl !k) = 0 && !k < 62 do
    incr k
  done;
  !k

(* Below this many stage candidates a full evaluation is already so cheap
   that the delta layer's bookkeeping (dirty masks, recorded stages)
   costs more than it saves. *)
let min_full_cost = 1024.0

(* Structural profitability of the delta layer for this task, from a
   candidate-count cost model: a full evaluation visits every stage
   candidate of every class, and a patched class is charged the
   candidates from its lowest dirty stage on.  Planners toggle one block
   per step, so the mean one-block estimate over all blocks is the
   typical patch; when it reaches half a full evaluation, the delta
   layer's bookkeeping was measured to eat the saving (HGRID A/B/C ran
   at 0.85–0.96x the plain full path when a patch re-ran that suffix),
   and such tasks skip the delta layer entirely.  One-block ratios are
   0.76–0.92 on HGRID A/B/C versus 0.33–0.44 on the SSW-forklift and
   DMAG migrations.  Since a patch re-judges only the rows the toggles
   reach and re-splits only the switches they moved rather than
   re-running the suffix, the model overstates a patch's cost (on E-SSW
   a patch's sweep re-judges about 2,500 rows where the model charges
   the 78,000 it used to re-run);
   it stays the decision rule, so the HGRID tiers stay on the full path
   until the delta layer is measured there. *)
let profitable ~compiled ~n_blocks ~deps =
  let full_cost =
    Array.fold_left
      (fun acc (c, _) -> acc +. float_of_int (Ecmp.stage_circuit_count c))
      0.0 compiled
  in
  full_cost >= min_full_cost
  && n_blocks > 0
  &&
  (* class -> stage -> candidates from that stage on *)
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
      compiled
  in
  let total = ref 0.0 in
  for b = 0 to n_blocks - 1 do
    let dep = deps.(b) in
    for i = 0 to Array.length dep - 1 do
      let d, m = dep.(i) in
      let suffix = suffix_cost.(d) in
      total := !total +. suffix.(min (lowest_bit m) (Array.length suffix - 1))
    done
  done;
  !total /. float_of_int n_blocks < 0.5 *. full_cost

let delta_profitable t =
  profitable ~compiled:t.compiled ~n_blocks:(Array.length t.blocks) ~deps:t.deps

(* The delta layer's row groupings, for exactly the classes it patches:
   those some dependency row names, when it is profitable.  A grouping
   depends only on its compiled class, so a class [carried] already
   groups keeps that grouping and only the others are built. *)
let group_classes ~carried compiled ~n_blocks deps =
  let n = Array.length compiled in
  let patched = Array.make n false in
  if profitable ~compiled ~n_blocks ~deps then
    Array.iter (Array.iter (fun (d, _) -> patched.(d) <- true)) deps;
  let kept d = d < Array.length carried && Option.is_some carried.(d) in
  let built =
    Ecmp.group_rows (Array.map fst compiled)
      ~which:(Array.mapi (fun d p -> p && not (kept d)) patched)
  in
  Array.mapi
    (fun d p -> if not p then None else if kept d then carried.(d) else built.(d))
    patched

(* Lower the compact representation to per-block activity masks: block
   [b] owns bit [b mod 63] of word [b / 63], and [block_prefix.(a).(k)]
   is the union of the masks of the first [k] blocks of type [a] — the
   exact applied-block set a compact count [k] denotes under canonical
   order.  A full state V is then the word-wise OR (equivalently XOR:
   blocks are disjoint) of its per-type prefixes, which is what
   [state_words] computes and what the satisfiability cache keys hash. *)
let lower_blocks blocks_by_type ~n_blocks =
  let words = max 1 ((n_blocks + 62) / 63) in
  let prefix =
    Array.map
      (fun type_blocks ->
        let k = Array.length type_blocks in
        let pre = Array.make_matrix (k + 1) words 0 in
        Array.iteri
          (fun i b ->
            let row = pre.(i + 1) and prev = pre.(i) in
            Array.blit prev 0 row 0 words;
            row.(b / 63) <- row.(b / 63) lor (1 lsl (b mod 63)))
          type_blocks;
        pre)
      blocks_by_type
  in
  (words, prefix)

let index_blocks blocks =
  let actions =
    Action.Set.of_list (List.map (fun (b : Blocks.t) -> b.Blocks.action) blocks)
  in
  let n_types = Action.Set.cardinal actions in
  let per_type = Array.make n_types [] in
  List.iter
    (fun (b : Blocks.t) ->
      let a = Action.Set.index actions b.Blocks.action in
      per_type.(a) <- b.Blocks.id :: per_type.(a))
    blocks;
  let blocks_by_type = Array.map (fun l -> Array.of_list (List.rev l)) per_type in
  let counts = Array.map Array.length blocks_by_type in
  (actions, blocks_by_type, counts)

let of_scenario ?(theta = 0.75) ?(alpha = 0.0) ?(funneling = 0.0)
    ?(routing = `Ecmp) ?type_weights ?power ?(target_util = 0.52) ?(seed = 42)
    ?(block_factor = 1.0) ?blocks ?demands (sc : Gen.scenario) =
  let blocks =
    match blocks with
    | Some bs -> bs
    | None -> Blocks.organize ~factor:block_factor sc
  in
  (match Blocks.validate sc.Gen.topo blocks with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Task.of_scenario: bad blocks: %s" e));
  let demands =
    match demands with
    | Some ds -> ds
    | None ->
        let prng = Kutil.Prng.create ~seed in
        Matrix.generate ~prng ~dcs:sc.Gen.layout.Gen.params.Gen.dcs ()
  in
  let rsws_by_dc = sc.Gen.layout.Gen.rsws_by_dc in
  let ebbs = sc.Gen.layout.Gen.ebbs in
  (* Wiring alternatives: every rewire group's circuits may land on its
     new endpoint, so routes compile an extra candidate row per target
     (see Ecmp.compile).  Empty outside the OCS scenarios. *)
  let alts =
    List.concat_map
      (fun (_, circuits, new_hi) -> List.map (fun c -> (c, new_hi)) circuits)
      sc.Gen.rewire_groups
  in
  let compiled_raw =
    List.map
      (fun d ->
        Routes.compile ~alts (Topo.universe sc.Gen.topo) ~rsws_by_dc ~ebbs d)
      demands
  in
  (* Calibrate so the hottest circuit of the original topology runs at
     [target_util]: safety then forbids draining everything at once but
     permits draining in slices, the band the paper describes. *)
  let factor =
    Matrix.calibration_factor sc.Gen.topo
      (List.map (fun c -> (c, 1.0)) compiled_raw)
      ~target_util
  in
  let demands = List.map (Demand.scale factor) demands in
  let compiled = Array.of_list (List.map (fun c -> (c, factor)) compiled_raw) in
  let blocks_arr = Array.of_list blocks in
  Array.iteri
    (fun i (b : Blocks.t) ->
      if b.Blocks.id <> i then invalid_arg "Task.of_scenario: block id mismatch")
    blocks_arr;
  let actions, blocks_by_type, counts = index_blocks blocks in
  let state_word_count, block_prefix =
    lower_blocks blocks_by_type ~n_blocks:(Array.length blocks_arr)
  in
  let deps = build_deps sc.Gen.topo blocks_arr compiled in
  {
    name = sc.Gen.name;
    topo = sc.Gen.topo;
    blocks = blocks_arr;
    actions;
    blocks_by_type;
    counts;
    demands;
    compiled;
    theta;
    alpha;
    funneling;
    routing;
    type_weights;
    power;
    adds_layer = sc.Gen.adds_layer;
    ensemble = None;
    deps;
    groups =
      group_classes ~carried:[||] compiled ~n_blocks:(Array.length blocks_arr)
        deps;
    state_word_count;
    block_prefix;
  }

(* A block's dependency row depends only on its own switches and circuits
   and on the compiled classes, so re-indexed blocks keep their rows; a
   class's row grouping depends on the class alone, so [t]'s carry over
   too. *)
let with_blocks t blocks ~deps =
  let actions, blocks_by_type, counts = index_blocks (Array.to_list blocks) in
  let state_word_count, block_prefix =
    lower_blocks blocks_by_type ~n_blocks:(Array.length blocks)
  in
  {
    t with
    blocks;
    actions;
    blocks_by_type;
    counts;
    deps;
    groups =
      group_classes ~carried:t.groups t.compiled ~n_blocks:(Array.length blocks)
        deps;
    state_word_count;
    block_prefix;
  }

let relower t =
  with_blocks { t with groups = [||] } t.blocks
    ~deps:(build_deps t.topo t.blocks t.compiled)

let universe t = Topo.universe t.topo

let blit_state_words t (v : Compact.t) ~into =
  let w = t.state_word_count in
  Array.fill into 0 w 0;
  Array.iteri
    (fun a k ->
      let row = t.block_prefix.(a).(k) in
      for i = 0 to w - 1 do
        into.(i) <- into.(i) lor row.(i)
      done)
    v

let state_words t v =
  let into = Array.make t.state_word_count 0 in
  blit_state_words t v ~into;
  into


let with_params ?theta ?alpha ?funneling ?routing ?type_weights ?power t =
  {
    t with
    theta = Option.value theta ~default:t.theta;
    alpha = Option.value alpha ~default:t.alpha;
    funneling = Option.value funneling ~default:t.funneling;
    routing = Option.value routing ~default:t.routing;
    type_weights =
      (match type_weights with Some w -> Some w | None -> t.type_weights);
    power = (match power with Some p -> Some p | None -> t.power);
  }

let with_ensemble ensemble t =
  (match ensemble with
  | Some e when Ensemble.n_classes e <> Array.length t.compiled ->
      invalid_arg "Task.with_ensemble: class count mismatch"
  | _ -> ());
  { t with ensemble }

(* Replace the per-class volume scales with absolute values (the scale
   includes the calibration factor). *)
let with_demand_scales t scales =
  if Array.length scales <> Array.length t.compiled then
    invalid_arg "Task.with_demand_scales: class count mismatch";
  let compiled =
    Array.mapi (fun i (c, _) -> (c, scales.(i))) t.compiled
  in
  let demands =
    List.mapi
      (fun i d ->
        let _, old_scale = t.compiled.(i) in
        Demand.scale (scales.(i) /. old_scale) d)
      t.demands
  in
  { t with compiled; demands }

let scale_demands t factors =
  if Array.length factors <> Array.length t.compiled then
    invalid_arg "Task.scale_demands: class count mismatch";
  with_demand_scales t
    (Array.mapi (fun i (_, scale) -> scale *. factors.(i)) t.compiled)

let total_blocks t = Array.length t.blocks

let block_type t b = Action.Set.index t.actions t.blocks.(b).Blocks.action

let affects_wiring t =
  Array.exists (fun (b : Blocks.t) -> Action.affects_wiring b.Blocks.action) t.blocks

let pp_summary fmt t =
  Format.fprintf fmt
    "task %s: %d blocks, %d action types, %d demand classes, theta=%.2f \
     alpha=%.2f"
    t.name (Array.length t.blocks)
    (Action.Set.cardinal t.actions)
    (List.length t.demands) t.theta t.alpha
