type params = {
  label : string;
  dcs : int;
  pods : int;
  rsws_per_pod : int;
  planes : int;
  ssws_per_plane : int;
  link_mult : int;
  v1_grids : int;
  v1_fadu_per_grid : int;
  v1_fauu_per_grid : int;
  v2_grids : int;
  v2_fadu_per_grid : int;
  v2_fauu_per_grid : int;
  ebs : int;
  drs : int;
  ebbs : int;
  mas : int;
  mesh_variants : int;
  cap_rsw_fsw : float;
  cap_fsw_ssw : float;
  cap_ssw_fadu_v1 : float;
  cap_ssw_fadu_v2 : float;
  cap_fadu_fauu : float;
  cap_fauu_eb : float;
  cap_fauu_ma : float;
  cap_ma_eb : float;
  cap_eb_dr : float;
  cap_dr_ebb : float;
  cap_fsw_ssw_new : float;
  cap_ssw_fadu_new : float;
  ssw_port_headroom : int;
  fsw_port_headroom : int;
}

type layout = {
  params : params;
  rsws_by_dc : int list array;
  fsws_by_dc_plane : int list array array;
  ssws_by_dc_plane : int list array array;
  new_ssws_by_dc_plane : int list array array;
  fadu_v1_by_grid : int list array;
  fauu_v1_by_grid : int list array;
  fadu_v2_by_grid : int list array;
  fauu_v2_by_grid : int list array;
  mas : int list;
  ebs : int list;
  drs : int list;
  ebbs : int list;
  new_ebs : int list;
  fauu_eb_circuits_by_eb : int list array;
}

type kind = Hgrid_v1_to_v2 | Ssw_forklift | Dmag | Ocs_rewire | Ocs_swap

let kind_to_string = function
  | Hgrid_v1_to_v2 -> "HGRID V1->V2"
  | Ssw_forklift -> "SSW Forklift"
  | Dmag -> "DMAG"
  | Ocs_rewire -> "OCS Rewire"
  | Ocs_swap -> "OCS Swap"

type scenario = {
  name : string;
  kind : kind;
  topo : Topo.t;
  layout : layout;
  drain_switches : int list;
  undrain_switches : int list;
  drain_circuit_groups : (string * int list) list;
  undrain_circuit_groups : (string * int list) list;
  rewire_groups : (string * int list * int) list;
  adds_layer : bool;
}

(* The stripe rule interconnecting SSWs with the HGRID sub-switches of one
   grid.  With [fadu_per_grid = planes] it is the one-to-one meshing of
   Fig. 2(c) left; with more (smaller) FADUs per grid, each plane is served
   by a stripe of several FADUs (Fig. 2(c) right). *)
let fadu_for_ssw ?(variant = 0) ~planes ~fadu_per_grid ~plane ~ssw_index () =
  let q = max 1 (fadu_per_grid / planes) in
  let plane = (plane + variant) mod planes in
  ((plane * q) + (ssw_index mod q)) mod fadu_per_grid

(* Down-links a FADU receives from the fabric under the stripe rule. *)
let fadu_down_degree (p : params) ~fadu_per_grid =
  let q = max 1 (fadu_per_grid / p.planes) in
  p.dcs * p.planes * ((p.ssws_per_plane + q - 1) / q)
  / p.planes (* each FADU serves exactly one plane *)

(* ---------------------------------------------------------------- *)
(* Port limits (Eq. 6).  Only the roles squeezed by the migration get a
   tight limit: original degree + headroom.  Everything else is sized to
   accommodate both generations. *)

let ssw_max_ports (p : params) ~kind =
  let down = p.pods * p.link_mult in
  match kind with
  | Hgrid_v1_to_v2 ->
      (* Enough for the larger generation alone plus a little transition
         headroom: old and new grids cannot all coexist (Eq. 6 drives the
         interleaving). *)
      down + max p.v1_grids p.v2_grids + p.ssw_port_headroom
  | Ssw_forklift | Dmag | Ocs_rewire | Ocs_swap ->
      down + p.v1_grids + p.v2_grids + 4

let fsw_max_ports (p : params) ~kind =
  let base =
    (p.rsws_per_pod * p.link_mult) + (p.ssws_per_plane * p.link_mult)
  in
  match kind with
  | Ssw_forklift -> base + p.fsw_port_headroom
  | Hgrid_v1_to_v2 | Dmag | Ocs_rewire | Ocs_swap -> base + 4

let fadu_max_ports (p : params) ~kind ~fadu_per_grid ~fauu_per_grid =
  let base = fadu_down_degree p ~fadu_per_grid + fauu_per_grid in
  match kind with
  | Ssw_forklift ->
      (* DC 0's stripe arrives twice while old and new SSWs coexist. *)
      base + (fadu_down_degree p ~fadu_per_grid / max 1 p.dcs) + 2
  | Hgrid_v1_to_v2 | Dmag | Ocs_rewire | Ocs_swap -> base + 2

let fauu_max_ports (p : params) ~kind ~fadu_per_grid =
  match kind with
  | Ocs_rewire | Ocs_swap ->
      (* Zero up-side headroom: the FAUU chassis is full as built, so any
         plan that lands an extra uplink before removing one violates
         Eq. 6 — only the degree-preserving OCS rewire is port-neutral. *)
      fadu_per_grid + p.ebs
  | Hgrid_v1_to_v2 | Ssw_forklift | Dmag -> fadu_per_grid + p.ebs + p.mas + 2

let eb_max_ports (p : params) ~kind =
  let fauu_total =
    match kind with
    | Dmag | Ocs_rewire | Ocs_swap -> p.v1_grids * p.v1_fauu_per_grid
    | Hgrid_v1_to_v2 | Ssw_forklift ->
        (p.v1_grids * p.v1_fauu_per_grid) + (p.v2_grids * p.v2_fauu_per_grid)
  in
  (* Under DMAG, only ~5/8 of the MAs fit while the direct FAUU uplinks
     still occupy the chassis: the migration must drain FAUU-EB circuit
     groups to free ports mid-flight ("decommission some circuits first to
     free up the ports", §2.3). *)
  fauu_total + p.drs + (p.mas * 5 / 8) + 2

(* ---------------------------------------------------------------- *)
(* Region construction *)

(* The switches and circuits [build] adds, term by term in its order:
   the fabric, the EB/DR/EBB boundary, the generation-1 HGRID (stripes,
   FADU-FAUU mesh, FAUU-EB uplinks), then the kind's target elements.
   [Builder.freeze] refuses a count that drifts from the code below. *)
let counts kind (p : params) =
  let mult = max 1 p.link_mult in
  let fsws = p.pods * 4 and ssws = p.planes * p.ssws_per_plane in
  let hgrid ~grids ~fadu_per_grid ~fauu_per_grid =
    ( grids * (fadu_per_grid + fauu_per_grid),
      grids
      * ((p.dcs * ssws) + (fadu_per_grid * fauu_per_grid) + (fauu_per_grid * p.ebs))
    )
  in
  let v1_s, v1_c =
    hgrid ~grids:p.v1_grids ~fadu_per_grid:p.v1_fadu_per_grid
      ~fauu_per_grid:p.v1_fauu_per_grid
  in
  let v1_fauus = p.v1_grids * p.v1_fauu_per_grid in
  let target_s, target_c =
    match kind with
    | Hgrid_v1_to_v2 ->
        hgrid ~grids:p.v2_grids ~fadu_per_grid:p.v2_fadu_per_grid
          ~fauu_per_grid:p.v2_fauu_per_grid
    | Ssw_forklift -> (ssws, (fsws * p.ssws_per_plane * mult) + (ssws * p.v1_grids))
    | Dmag -> (p.mas, p.mas * (v1_fauus + p.ebs))
    | Ocs_rewire -> (p.ebs, p.ebs * p.drs)
    | Ocs_swap -> (p.ebs, (p.ebs * p.drs) + (p.ebs * v1_fauus))
  in
  ( (p.dcs * ((p.pods * (4 + p.rsws_per_pod)) + ssws))
    + p.ebs + p.drs + p.ebbs + v1_s + target_s,
    (p.dcs * fsws * mult * (p.rsws_per_pod + p.ssws_per_plane))
    + (p.ebs * p.drs) + (p.drs * p.ebbs) + v1_c + target_c )

(* Switch names without [Printf]: [prefix] then [x]'s digits, or the
   three such parts back to back, written into one string of the exact
   length.  Every number is a non-negative index. *)
let rec digits x = if x < 10 then 1 else 1 + digits (x / 10)

let put b pos prefix x =
  let lp = String.length prefix in
  Bytes.blit_string prefix 0 b pos lp;
  let last = pos + lp + digits x - 1 in
  let x = ref x in
  for k = last downto pos + lp do
    Bytes.set b k (Char.chr (48 + (!x mod 10)));
    x := !x / 10
  done;
  last + 1

let name1 prefix x =
  let b = Bytes.create (String.length prefix + digits x) in
  ignore (put b 0 prefix x : int);
  Bytes.unsafe_to_string b

let name3 p1 x1 p2 x2 p3 x3 =
  let len =
    String.length p1 + digits x1 + String.length p2 + digits x2
    + String.length p3 + digits x3
  in
  let b = Bytes.create len in
  ignore (put b (put b (put b 0 p1 x1) p2 x2) p3 x3 : int);
  Bytes.unsafe_to_string b

let build kind (p : params) =
  let switches, circuits = counts kind p in
  let b = Builder.create ~switches ~circuits in
  let mult = max 1 p.link_mult in

  (* Fabric: per DC, pods of 4 FSWs + RSWs; planes of SSWs. *)
  let fsw_ids = Array.init p.dcs (fun _ -> Array.make_matrix p.pods 4 (-1)) in
  let ssw_ids =
    Array.init p.dcs (fun _ -> Array.make_matrix p.planes p.ssws_per_plane (-1))
  in
  let rsws_by_dc = Array.make p.dcs [] in
  let fsws_by_dc_plane = Array.init p.dcs (fun _ -> Array.make p.planes []) in
  let ssws_by_dc_plane = Array.init p.dcs (fun _ -> Array.make p.planes []) in

  for dc = 0 to p.dcs - 1 do
    for pod = 0 to p.pods - 1 do
      for f = 0 to 3 do
        (* With 4 planes, FSW f joins plane f; with 8 planes, pods
           alternate between the low and high halves (Fig. 2(d)). *)
        let plane = (f + (pod mod (p.planes / 4 + (if p.planes mod 4 = 0 then 0 else 1)) * 4)) mod p.planes in
        let id =
          Builder.add_switch b
            ~name:(name3 "dc" dc "/pod" pod "/fsw" f)
            ~role:Switch.FSW ~dc ~pod ~plane ~index:f
            ~max_ports:(fsw_max_ports p ~kind) ()
        in
        fsw_ids.(dc).(pod).(f) <- id;
        fsws_by_dc_plane.(dc).(plane) <- id :: fsws_by_dc_plane.(dc).(plane)
      done;
      for r = 0 to p.rsws_per_pod - 1 do
        let id =
          Builder.add_switch b
            ~name:(name3 "dc" dc "/pod" pod "/rsw" r)
            ~role:Switch.RSW ~dc ~pod ~index:r
            ~max_ports:((4 * mult) + 2) ()
        in
        rsws_by_dc.(dc) <- id :: rsws_by_dc.(dc);
        for f = 0 to 3 do
          for _m = 1 to mult do
            ignore
              (Builder.add_circuit b ~lo:id ~hi:fsw_ids.(dc).(pod).(f)
                 ~capacity:p.cap_rsw_fsw ())
          done
        done
      done
    done;
    for plane = 0 to p.planes - 1 do
      for k = 0 to p.ssws_per_plane - 1 do
        let id =
          Builder.add_switch b
            ~name:(name3 "dc" dc "/plane" plane "/ssw" k)
            ~role:Switch.SSW ~dc ~plane ~index:k
            ~max_ports:(ssw_max_ports p ~kind) ()
        in
        ssw_ids.(dc).(plane).(k) <- id;
        ssws_by_dc_plane.(dc).(plane) <- id :: ssws_by_dc_plane.(dc).(plane)
      done
    done;
    (* FSW--SSW meshing within each plane. *)
    for plane = 0 to p.planes - 1 do
      List.iter
        (fun fsw ->
          for k = 0 to p.ssws_per_plane - 1 do
            for _m = 1 to mult do
              ignore
                (Builder.add_circuit b ~lo:fsw ~hi:ssw_ids.(dc).(plane).(k)
                   ~capacity:p.cap_fsw_ssw ())
            done
          done)
        fsws_by_dc_plane.(dc).(plane)
    done
  done;

  (* EB / DR / EBB boundary. *)
  let eb_ids =
    List.init p.ebs (fun e ->
        Builder.add_switch b ~name:(name1 "eb" e) ~role:Switch.EB
          ~index:e ~max_ports:(eb_max_ports p ~kind) ())
  in
  let dr_ports =
    (* OCS kinds host two full EB banks from day one. *)
    match kind with
    | Ocs_rewire | Ocs_swap -> (2 * p.ebs) + p.ebbs + 4
    | Hgrid_v1_to_v2 | Ssw_forklift | Dmag -> p.ebs + p.ebbs + 4
  in
  let dr_ids =
    List.init p.drs (fun d ->
        Builder.add_switch b ~name:(name1 "dr" d) ~role:Switch.DR
          ~index:d ~max_ports:dr_ports ())
  in
  let ebb_ids =
    List.init p.ebbs (fun x ->
        Builder.add_switch b ~name:(name1 "ebb" x) ~role:Switch.EBB
          ~index:x ~max_ports:(p.drs + 4) ())
  in
  List.iter
    (fun eb ->
      List.iter
        (fun dr ->
          ignore (Builder.add_circuit b ~lo:eb ~hi:dr ~capacity:p.cap_eb_dr ()))
        dr_ids)
    eb_ids;
  List.iter
    (fun dr ->
      List.iter
        (fun ebb ->
          ignore (Builder.add_circuit b ~lo:dr ~hi:ebb ~capacity:p.cap_dr_ebb ()))
        ebb_ids)
    dr_ids;

  (* One HGRID generation: grids of FADUs (down) and FAUUs (up). *)
  let add_hgrid ~generation ~grids ~fadu_per_grid ~fauu_per_grid
      ~cap_ssw_fadu ~future =
    let fadu_by_grid = Array.make grids [] in
    let fauu_by_grid = Array.make grids [] in
    let fauu_eb_by_eb = Array.make p.ebs [] in
    for g = 0 to grids - 1 do
      let fadus =
        List.init fadu_per_grid (fun i ->
            Builder.add_switch b
              ~name:(name3 "hgrid-v" generation "/grid" g "/fadu" i)
              ~role:Switch.FADU ~generation ~plane:g ~index:i ~future
              ~max_ports:(fadu_max_ports p ~kind ~fadu_per_grid ~fauu_per_grid)
              ())
      in
      let fauus =
        List.init fauu_per_grid (fun j ->
            Builder.add_switch b
              ~name:(name3 "hgrid-v" generation "/grid" g "/fauu" j)
              ~role:Switch.FAUU ~generation ~plane:g ~index:j ~future
              ~max_ports:(fauu_max_ports p ~kind ~fadu_per_grid) ())
      in
      fadu_by_grid.(g) <- fadus;
      fauu_by_grid.(g) <- fauus;
      let fadu_arr = Array.of_list fadus in
      let variant = g mod max 1 p.mesh_variants in
      (* SSW -> FADU stripes, every DC; the grid's meshing variant rotates
         the plane-to-FADU assignment (coexisting patterns, Fig. 2(c)). *)
      for dc = 0 to p.dcs - 1 do
        for plane = 0 to p.planes - 1 do
          for k = 0 to p.ssws_per_plane - 1 do
            let f =
              fadu_for_ssw ~variant ~planes:p.planes ~fadu_per_grid ~plane
                ~ssw_index:k ()
            in
            ignore
              (Builder.add_circuit b ~lo:ssw_ids.(dc).(plane).(k)
                 ~hi:fadu_arr.(f) ~future ~capacity:cap_ssw_fadu ())
          done
        done
      done;
      (* FADU <-> FAUU full mesh within the grid. *)
      ignore
        (Builder.connect_all b ~los:fadus ~his:fauus ~future
           ~capacity:p.cap_fadu_fauu ());
      (* FAUU -> EB full mesh, remembering ids per EB for DMAG drains. *)
      List.iter
        (fun fauu ->
          List.iteri
            (fun e eb ->
              let c =
                Builder.add_circuit b ~lo:fauu ~hi:eb ~future
                  ~capacity:p.cap_fauu_eb ()
              in
              fauu_eb_by_eb.(e) <- c :: fauu_eb_by_eb.(e))
            eb_ids)
        fauus
    done;
    (fadu_by_grid, fauu_by_grid, fauu_eb_by_eb)
  in

  let fadu_v1_by_grid, fauu_v1_by_grid, fauu_eb_circuits_by_eb =
    add_hgrid ~generation:1 ~grids:p.v1_grids
      ~fadu_per_grid:p.v1_fadu_per_grid ~fauu_per_grid:p.v1_fauu_per_grid
      ~cap_ssw_fadu:p.cap_ssw_fadu_v1 ~future:false
  in

  (* Scenario-specific target elements. *)
  let fadu_v2_by_grid = ref (Array.make 0 []) in
  let fauu_v2_by_grid = ref (Array.make 0 []) in
  let new_ssws_by_dc_plane = Array.init p.dcs (fun _ -> Array.make p.planes []) in
  let mas = ref [] in
  let new_ebs = ref [] in
  let new_uplinks_by_new_eb = ref [] in

  (match kind with
  | Hgrid_v1_to_v2 ->
      let fadu2, fauu2, _ =
        add_hgrid ~generation:2 ~grids:p.v2_grids
          ~fadu_per_grid:p.v2_fadu_per_grid ~fauu_per_grid:p.v2_fauu_per_grid
          ~cap_ssw_fadu:p.cap_ssw_fadu_v2 ~future:true
      in
      fadu_v2_by_grid := fadu2;
      fauu_v2_by_grid := fauu2
  | Ssw_forklift ->
      (* New-generation SSWs for DC 0 mirror the old ones: same plane, same
         FSW mesh, same HGRID stripe, higher capacity. *)
      let dc = 0 in
      for plane = 0 to p.planes - 1 do
        for k = 0 to p.ssws_per_plane - 1 do
          let id =
            Builder.add_switch b
              ~name:(name3 "dc" dc "/plane" plane "/ssw-new" k)
              ~role:Switch.SSW ~generation:2 ~dc ~plane ~index:k ~future:true
              ~max_ports:(ssw_max_ports p ~kind) ()
          in
          new_ssws_by_dc_plane.(dc).(plane) <-
            id :: new_ssws_by_dc_plane.(dc).(plane);
          List.iter
            (fun fsw ->
              for _m = 1 to mult do
                ignore
                  (Builder.add_circuit b ~lo:fsw ~hi:id ~future:true
                     ~capacity:p.cap_fsw_ssw_new ())
              done)
            fsws_by_dc_plane.(dc).(plane);
          for g = 0 to p.v1_grids - 1 do
            let f =
              fadu_for_ssw ~variant:(g mod max 1 p.mesh_variants)
                ~planes:p.planes ~fadu_per_grid:p.v1_fadu_per_grid ~plane
                ~ssw_index:k ()
            in
            let fadu = List.nth fadu_v1_by_grid.(g) f in
            ignore
              (Builder.add_circuit b ~lo:id ~hi:fadu ~future:true
                 ~capacity:p.cap_ssw_fadu_new ())
          done
        done
      done
  | Dmag ->
      (* MA switches between the FAUUs and the EBs. *)
      let all_fauus = List.concat (Array.to_list fauu_v1_by_grid) in
      mas :=
        List.init p.mas (fun m ->
            let id =
              Builder.add_switch b ~name:(name1 "ma" m)
                ~role:Switch.MA ~index:m ~future:true
                ~max_ports:(List.length all_fauus + p.ebs + 2) ()
            in
            List.iter
              (fun fauu ->
                ignore
                  (Builder.add_circuit b ~lo:fauu ~hi:id ~future:true
                     ~capacity:p.cap_fauu_ma ()))
              all_fauus;
            List.iter
              (fun eb ->
                ignore
                  (Builder.add_circuit b ~lo:id ~hi:eb ~future:true
                     ~capacity:p.cap_ma_eb ()))
              eb_ids;
            id)
  | Ocs_rewire | Ocs_swap ->
      (* A parallel EB bank behind an optical circuit switch: active from
         day one and fully meshed into the DRs, but with no as-built FAUU
         uplinks — drain/undrain alone cannot move the HGRID onto it.
         The swap variant additionally pre-cables future duplicate
         uplinks, the FastReChain-style recabling plan that the FAUUs'
         zero port headroom and the utilization bound jointly doom. *)
      new_ebs :=
        List.init p.ebs (fun e ->
            let id =
              Builder.add_switch b
                ~name:(name1 "eb-new" e)
                ~role:Switch.EB ~generation:2 ~index:e
                ~max_ports:(eb_max_ports p ~kind) ()
            in
            List.iter
              (fun dr ->
                ignore
                  (Builder.add_circuit b ~lo:id ~hi:dr ~capacity:p.cap_eb_dr ()))
              dr_ids;
            id);
      (match kind with
      | Ocs_swap ->
          let all_fauus = List.concat (Array.to_list fauu_v1_by_grid) in
          new_uplinks_by_new_eb :=
            List.map
              (fun nid ->
                List.map
                  (fun fauu ->
                    Builder.add_circuit b ~lo:fauu ~hi:nid ~future:true
                      ~capacity:p.cap_fauu_eb ())
                  all_fauus)
              !new_ebs
      | _ -> ()));

  let layout =
    {
      params = p;
      rsws_by_dc = Array.map List.rev rsws_by_dc;
      fsws_by_dc_plane = Array.map (Array.map List.rev) fsws_by_dc_plane;
      ssws_by_dc_plane = Array.map (Array.map List.rev) ssws_by_dc_plane;
      new_ssws_by_dc_plane = Array.map (Array.map List.rev) new_ssws_by_dc_plane;
      fadu_v1_by_grid;
      fauu_v1_by_grid;
      fadu_v2_by_grid = !fadu_v2_by_grid;
      fauu_v2_by_grid = !fauu_v2_by_grid;
      mas = List.rev !mas;
      ebs = eb_ids;
      drs = dr_ids;
      ebbs = ebb_ids;
      new_ebs = !new_ebs;
      fauu_eb_circuits_by_eb = Array.map List.rev fauu_eb_circuits_by_eb;
    }
  in
  let topo = Builder.freeze b in
  let ( drain_switches,
        undrain_switches,
        drain_circuit_groups,
        undrain_circuit_groups,
        rewire_groups,
        adds_layer ) =
    match kind with
    | Hgrid_v1_to_v2 ->
        let old_hgrid =
          List.concat
            (Array.to_list layout.fadu_v1_by_grid
            @ Array.to_list layout.fauu_v1_by_grid)
        in
        let new_hgrid =
          List.concat
            (Array.to_list layout.fadu_v2_by_grid
            @ Array.to_list layout.fauu_v2_by_grid)
        in
        (old_hgrid, new_hgrid, [], [], [], false)
    | Ssw_forklift ->
        let old_ssws =
          List.concat (Array.to_list layout.ssws_by_dc_plane.(0))
        in
        let new_ssws =
          List.concat (Array.to_list layout.new_ssws_by_dc_plane.(0))
        in
        (old_ssws, new_ssws, [], [], [], false)
    | Dmag ->
        let groups =
          List.mapi
            (fun e circuits -> (Printf.sprintf "eb%d-uplinks" e, circuits))
            (Array.to_list layout.fauu_eb_circuits_by_eb)
        in
        ([], layout.mas, groups, [], [], true)
    | Ocs_rewire ->
        (* Flip every old EB's uplink bundle onto its new-bank twin, then
           retire the old chassis. *)
        let groups =
          List.mapi
            (fun e nid ->
              ( Printf.sprintf "eb%d-uplinks" e,
                layout.fauu_eb_circuits_by_eb.(e),
                nid ))
            layout.new_ebs
        in
        (layout.ebs, [], [], [], groups, false)
    | Ocs_swap ->
        (* The same migration expressed with drains and undrains only:
           retire each old uplink bundle and onboard its pre-cabled
           duplicate.  At block granularity no ordering survives — see
           the OCS notes above. *)
        let old_groups =
          List.mapi
            (fun e circuits -> (Printf.sprintf "eb%d-uplinks" e, circuits))
            (Array.to_list layout.fauu_eb_circuits_by_eb)
        in
        let new_groups =
          List.mapi
            (fun e circuits ->
              (Printf.sprintf "eb-new%d-uplinks" e, circuits))
            !new_uplinks_by_new_eb
        in
        (layout.ebs, [], old_groups, new_groups, [], false)
  in
  {
    name = Printf.sprintf "%s/%s" p.label (kind_to_string kind);
    kind;
    topo;
    layout;
    drain_switches;
    undrain_switches;
    drain_circuit_groups;
    undrain_circuit_groups;
    rewire_groups;
    adds_layer;
  }

(* ---------------------------------------------------------------- *)
(* The topology family of Table 3 *)

let default_caps =
  fun p ->
    {
      p with
      cap_rsw_fsw = 0.1;
      cap_fsw_ssw = 0.4;
      cap_ssw_fadu_v1 = 0.4;
      cap_ssw_fadu_v2 = 0.35;
      cap_fadu_fauu = 2.0;
      cap_fauu_eb = 1.2;
      cap_fauu_ma = 1.2;
      cap_ma_eb = 2.4;
      cap_eb_dr = 6.4;
      cap_dr_ebb = 12.8;
      cap_fsw_ssw_new = 0.5;
      cap_ssw_fadu_new = 0.5;
    }

(* Make the HGRID layer the structurally tightest layer of the region:
   its per-DC aggregate capacity is set to 60% of the rack-uplink
   aggregate, so once demands are calibrated against the hottest circuit
   (which then sits in the SSW-FADU stripe) the utilization bound actively
   constrains how many grids can be drained at once — the safety band of
   §2.2.  The target generation gets ~40% more total capacity than V1
   ("more nodes and larger capacity"). *)
let tune_hgrid_caps (p : params) =
  let rsw_aggregate_per_dc =
    float_of_int (p.pods * p.rsws_per_pod * 4 * p.link_mult) *. p.cap_rsw_fsw
  in
  let region = rsw_aggregate_per_dc *. float_of_int p.dcs in
  let stripe_circuits_per_dc grids =
    float_of_int (p.planes * p.ssws_per_plane * grids)
  in
  let v1 = 0.6 *. rsw_aggregate_per_dc /. stripe_circuits_per_dc p.v1_grids in
  (* V2 keeps the per-circuit capacity of V1: production ECMP splits per
     next-hop regardless of capacity, so a smaller-capacity new-generation
     circuit would immediately run hotter than the old ones (the §7.1
     outage).  V2's larger total capacity comes from having more grids —
     the disaggregated "more nodes" design. *)
  let v2 = v1 in
  (* Every layer above the stripe gets at least the full rack aggregate so
     the calibrated hottest circuit always sits in the SSW-FADU stripe. *)
  let v1_fauus = float_of_int (p.v1_grids * p.v1_fauu_per_grid) in
  let per c n = c *. region /. float_of_int n in
  {
    p with
    cap_ssw_fadu_v1 = v1;
    cap_ssw_fadu_v2 = v2;
    cap_ssw_fadu_new = v1 *. 1.25;
    cap_fsw_ssw_new = p.cap_fsw_ssw *. 1.25;
    cap_fadu_fauu =
      per 1.0 (p.v1_grids * p.v1_fadu_per_grid * p.v1_fauu_per_grid);
    cap_fauu_eb = per 1.5 (int_of_float v1_fauus * p.ebs);
    cap_eb_dr = per 2.0 (p.ebs * p.drs);
    cap_dr_ebb = per 2.0 (p.drs * p.ebbs);
    cap_fauu_ma =
      (if p.mas = 0 then p.cap_fauu_ma
       else per 1.5 (int_of_float v1_fauus * p.mas));
    cap_ma_eb = (if p.mas = 0 then p.cap_ma_eb else per 1.5 (p.mas * p.ebs));
  }

(* OCS calibration: start from the HGRID tuning, then make the FAUU-EB
   uplinks the tightest layer of the region by a wide margin.  Demand
   calibration pins the hottest circuit — now an uplink — near the
   utilization target, so wholesale loss of either EB bank (which is
   what any drain-first or undrain-first ordering does at block
   granularity, with only two banks) doubles it past the safety
   threshold, while the degree- and load-preserving OCS rewire leaves
   it untouched.  The stripe gets matching slack so it never outbids
   the uplinks at calibration time. *)
let tune_ocs_caps (p : params) =
  let p = tune_hgrid_caps p in
  let rsw_aggregate_per_dc =
    float_of_int (p.pods * p.rsws_per_pod * 4 * p.link_mult) *. p.cap_rsw_fsw
  in
  let region = rsw_aggregate_per_dc *. float_of_int p.dcs in
  let v1_fauus = p.v1_grids * p.v1_fauu_per_grid in
  {
    p with
    cap_ssw_fadu_v1 = p.cap_ssw_fadu_v1 *. 2.5;
    cap_fauu_eb = 0.25 *. region /. float_of_int (v1_fauus * p.ebs);
  }

let base_params label =
  default_caps
    {
      label;
      dcs = 1;
      pods = 1;
      rsws_per_pod = 1;
      planes = 4;
      ssws_per_plane = 1;
      link_mult = 1;
      v1_grids = 1;
      v1_fadu_per_grid = 4;
      v1_fauu_per_grid = 2;
      v2_grids = 1;
      v2_fadu_per_grid = 4;
      v2_fauu_per_grid = 2;
      ebs = 2;
      drs = 1;
      ebbs = 1;
      mas = 0;
      mesh_variants = 2;
      cap_rsw_fsw = 0.0;
      cap_fsw_ssw = 0.0;
      cap_ssw_fadu_v1 = 0.0;
      cap_ssw_fadu_v2 = 0.0;
      cap_fadu_fauu = 0.0;
      cap_fauu_eb = 0.0;
      cap_fauu_ma = 0.0;
      cap_ma_eb = 0.0;
      cap_eb_dr = 0.0;
      cap_dr_ebb = 0.0;
      cap_fsw_ssw_new = 0.0;
      cap_ssw_fadu_new = 0.0;
      ssw_port_headroom = 1;
      fsw_port_headroom = 4;
    }

let params_a () =
  tune_hgrid_caps
  {
    (base_params "A") with
    dcs = 2;
    pods = 1;
    rsws_per_pod = 2;
    ssws_per_plane = 1;
    v1_grids = 3;
    v1_fadu_per_grid = 4;
    v1_fauu_per_grid = 2;
    v2_grids = 5;
    v2_fadu_per_grid = 4;
    v2_fauu_per_grid = 2;
    ssw_port_headroom = 1;
  }

let params_b () =
  tune_hgrid_caps
  {
    (base_params "B") with
    dcs = 2;
    pods = 4;
    rsws_per_pod = 4;
    ssws_per_plane = 5;
    v1_grids = 4;
    v1_fadu_per_grid = 4;
    v1_fauu_per_grid = 2;
    v2_grids = 8;
    v2_fadu_per_grid = 6;
    v2_fauu_per_grid = 3;
    ebs = 4;
    drs = 2;
    ebbs = 2;
    ssw_port_headroom = 1;
  }

let params_c () =
  tune_hgrid_caps
  {
    (base_params "C") with
    dcs = 3;
    pods = 6;
    rsws_per_pod = 14;
    ssws_per_plane = 16;
    link_mult = 2;
    v1_grids = 6;
    v1_fadu_per_grid = 8;
    v1_fauu_per_grid = 4;
    v2_grids = 10;
    v2_fadu_per_grid = 16;
    v2_fauu_per_grid = 8;
    ebs = 6;
    drs = 2;
    ebbs = 2;
    ssw_port_headroom = 1;
  }

let params_d () =
  tune_hgrid_caps
  {
    (base_params "D") with
    dcs = 4;
    pods = 10;
    rsws_per_pod = 16;
    ssws_per_plane = 16;
    link_mult = 3;
    v1_grids = 6;
    v1_fadu_per_grid = 8;
    v1_fauu_per_grid = 4;
    v2_grids = 10;
    v2_fadu_per_grid = 16;
    v2_fauu_per_grid = 8;
    ebs = 8;
    drs = 2;
    ebbs = 2;
    ssw_port_headroom = 1;
  }

let params_e () =
  tune_hgrid_caps
  {
    (base_params "E") with
    dcs = 6;
    pods = 48;
    rsws_per_pod = 30;
    ssws_per_plane = 36;
    v1_grids = 8;
    v1_fadu_per_grid = 24;
    v1_fauu_per_grid = 12;
    v2_grids = 12;
    v2_fadu_per_grid = 24;
    v2_fauu_per_grid = 12;
    ebs = 8;
    drs = 4;
    ebbs = 4;
    mas = 80;
    ssw_port_headroom = 1;
    fsw_port_headroom = 12;
  }

(* F: the ROADMAP tier one order of magnitude past the paper's E —
   a multi-region build of ~111k switches and ~991k circuits.  The
   lattice is deliberately shallow (4 v1 + 6 v2 grids over 2 mesh
   variants -> 144 compact states) so every planner, including Janus's
   exhaustive sweep, finishes while each admission check pays the full
   ~1M-circuit evaluation — the memory/latency trajectory the `scale`
   bench measures.  With 8 planes the SSW port formula sizes down-links
   at [pods] while only [pods/2] FSWs share a plane, so Eq. 6 is
   non-binding here (unlike E): F stresses scale, not port pressure. *)
let params_f () =
  tune_hgrid_caps
  {
    (base_params "F") with
    dcs = 12;
    pods = 100;
    rsws_per_pod = 80;
    planes = 8;
    ssws_per_plane = 96;
    v1_grids = 4;
    v1_fadu_per_grid = 96;
    v1_fauu_per_grid = 48;
    v2_grids = 6;
    v2_fadu_per_grid = 96;
    v2_fauu_per_grid = 48;
    ebs = 16;
    drs = 6;
    ebbs = 6;
    ssw_port_headroom = 1;
    fsw_port_headroom = 12;
  }

(* F-LITE: E's fabric (~11k switches) under F's shallow 144-state
   lattice — the CI smoke tier: F-shaped planner behavior at a scale a
   quick run can afford. *)
let params_f_lite () =
  tune_hgrid_caps
  {
    (base_params "F-LITE") with
    dcs = 6;
    pods = 48;
    rsws_per_pod = 30;
    ssws_per_plane = 36;
    v1_grids = 4;
    v1_fadu_per_grid = 24;
    v1_fauu_per_grid = 12;
    v2_grids = 6;
    v2_fadu_per_grid = 24;
    v2_fauu_per_grid = 12;
    ebs = 8;
    drs = 4;
    ebbs = 4;
    ssw_port_headroom = 1;
    fsw_port_headroom = 12;
  }

(* OCS: a B-sized fabric with a v1-only HGRID and two EB banks — the
   bench tier for the topology-changing action alphabet. *)
let params_ocs () =
  tune_ocs_caps
    {
      (base_params "OCS") with
      dcs = 2;
      pods = 4;
      rsws_per_pod = 4;
      ssws_per_plane = 5;
      v1_grids = 4;
      v1_fadu_per_grid = 4;
      v1_fauu_per_grid = 2;
      v2_grids = 0;
      ebs = 2;
      drs = 2;
      ebbs = 2;
    }

(* OCS-LITE: the same shape at A's scale — the CI smoke tier. *)
let params_ocs_lite () =
  tune_ocs_caps
    {
      (base_params "OCS-LITE") with
      dcs = 2;
      rsws_per_pod = 2;
      v1_grids = 2;
      v1_fadu_per_grid = 4;
      v1_fauu_per_grid = 2;
      v2_grids = 0;
    }

let params_of_label = function
  | "A" -> Some (Hgrid_v1_to_v2, params_a ())
  | "B" -> Some (Hgrid_v1_to_v2, params_b ())
  | "C" -> Some (Hgrid_v1_to_v2, params_c ())
  | "D" -> Some (Hgrid_v1_to_v2, params_d ())
  | "E" -> Some (Hgrid_v1_to_v2, params_e ())
  | "E-SSW" -> Some (Ssw_forklift, params_e ())
  | "E-DMAG" -> Some (Dmag, params_e ())
  | "F" -> Some (Hgrid_v1_to_v2, params_f ())
  | "F-SSW" -> Some (Ssw_forklift, params_f ())
  | "F-LITE" -> Some (Hgrid_v1_to_v2, params_f_lite ())
  | "OCS" -> Some (Ocs_rewire, params_ocs ())
  | "OCS-SWAP" -> Some (Ocs_swap, params_ocs ())
  | "OCS-LITE" -> Some (Ocs_rewire, params_ocs_lite ())
  | "OCS-SWAP-LITE" -> Some (Ocs_swap, params_ocs_lite ())
  | _ -> None

let scenario_of_label label =
  match params_of_label label with
  | Some (kind, params) -> build kind params
  | None -> invalid_arg (Printf.sprintf "Gen.scenario_of_label: unknown %S" label)

(* The paper's tiers only: F/F-SSW/F-LITE stay out so the tolerance
   sweeps and Table 3 jobs that iterate every label do not generate
   million-circuit regions. *)
let all_labels = [ "A"; "B"; "C"; "D"; "E"; "E-DMAG"; "E-SSW" ]

(* ---------------------------------------------------------------- *)
(* Reporting *)

type stats = {
  orig_switches : int;
  orig_circuits : int;
  actions : int;
  capacity_touched : float;
}

let stats sc =
  let t = sc.topo in
  let drained_capacity =
    (* Capacity of every usable circuit lost by draining the old switches
       and circuit groups: the "Capacity" column of Table 1. *)
    let drained = Hashtbl.create 64 in
    List.iter (fun s -> Hashtbl.replace drained s ()) sc.drain_switches;
    let total = ref 0.0 in
    for j = 0 to Topo.n_circuits t - 1 do
      if
        Topo.usable t j
        && (Hashtbl.mem drained (Topo.endpoint_lo t j)
           || Hashtbl.mem drained (Topo.endpoint_hi t j))
      then total := !total +. Topo.capacity t j
    done;
    List.iter
      (fun (_, circuits) ->
        List.iter
          (fun j -> total := !total +. Topo.capacity t j)
          circuits)
      sc.drain_circuit_groups;
    List.iter
      (fun (_, circuits, _) ->
        List.iter
          (fun j -> total := !total +. Topo.capacity t j)
          circuits)
      sc.rewire_groups;
    !total
  in
  {
    orig_switches = Topo.active_switch_count t;
    orig_circuits = Topo.active_circuit_count t;
    actions =
      List.length sc.drain_switches
      + List.length sc.undrain_switches
      + List.length sc.drain_circuit_groups
      + List.length sc.undrain_circuit_groups
      + List.length sc.rewire_groups;
    capacity_touched = drained_capacity;
  }
