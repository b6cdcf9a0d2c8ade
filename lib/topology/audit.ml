type finding = {
  severity : [ `Error | `Warning ];
  subject : string;
  message : string;
}

let pp_finding fmt f =
  Format.fprintf fmt "%s %s: %s"
    (match f.severity with `Error -> "[error]" | `Warning -> "[warning]")
    f.subject f.message

let is_clean findings = not (List.exists (fun f -> f.severity = `Error) findings)

let check_port_budgets topo acc =
  Array.fold_left
    (fun acc (s : Switch.t) ->
      if
        Topo.switch_active topo s.Switch.id
        && Topo.usable_degree topo s.Switch.id > s.Switch.max_ports
      then
        {
          severity = `Error;
          subject = s.Switch.name;
          message =
            Printf.sprintf "uses %d ports but is budgeted for %d"
              (Topo.usable_degree topo s.Switch.id)
              s.Switch.max_ports;
        }
        :: acc
      else acc)
    acc (Topo.switches topo)

let check_rsw_uplinks (sc : Gen.scenario) topo acc =
  let expected = 4 * max 1 sc.Gen.layout.Gen.params.Gen.link_mult in
  Array.fold_left
    (fun acc (s : Switch.t) ->
      if s.Switch.role = Switch.RSW && Topo.switch_active topo s.Switch.id then begin
        let ups = Topo.up_degree topo s.Switch.id in
        if ups <> expected then
          {
            severity = `Error;
            subject = s.Switch.name;
            message = Printf.sprintf "has %d uplinks, expected %d" ups expected;
          }
          :: acc
        else acc
      end
      else acc)
    acc (Topo.switches topo)

(* Every active SSW must reach every grid whose FADUs are active with
   exactly one usable circuit. *)
let check_stripes (sc : Gen.scenario) topo acc =
  let l = sc.Gen.layout in
  let grid_of = Hashtbl.create 128 in
  let note tag by_grid =
    Array.iteri
      (fun g fadus ->
        List.iter (fun f -> Hashtbl.replace grid_of f (tag, g)) fadus)
      by_grid
  in
  note "v1" l.Gen.fadu_v1_by_grid;
  note "v2" l.Gen.fadu_v2_by_grid;
  let grid_active tag g =
    let fadus =
      match tag with
      | "v1" -> l.Gen.fadu_v1_by_grid.(g)
      | _ -> l.Gen.fadu_v2_by_grid.(g)
    in
    List.exists (fun f -> Topo.switch_active topo f) fadus
  in
  Array.fold_left
    (fun acc (s : Switch.t) ->
      if s.Switch.role = Switch.SSW && Topo.switch_active topo s.Switch.id then begin
        let hits = Hashtbl.create 8 in
        Topo.iter_up topo s.Switch.id ~f:(fun j ->
            if Topo.usable topo j then begin
              let other = Topo.endpoint_hi topo j in
              match Hashtbl.find_opt grid_of other with
              | Some key ->
                  Hashtbl.replace hits key
                    (1 + Option.value ~default:0 (Hashtbl.find_opt hits key))
              | None -> ()
            end);
        let acc = ref acc in
        (* Sorted traversal: finding order is part of the report and
           must not depend on hash layout (R3 discipline). *)
        Kutil.Tbl.sorted_iter
          ~compare:(fun (ta, ga) (tb, gb) ->
            let c = String.compare ta tb in
            if c <> 0 then c else Int.compare ga gb)
          (fun (tag, g) n ->
            if n <> 1 then
              acc :=
                {
                  severity = `Error;
                  subject = s.Switch.name;
                  message =
                    Printf.sprintf "%d circuits into %s grid %d (expected 1)" n
                      tag g;
                }
                :: !acc)
          hits;
        (* Missing grids entirely. *)
        List.iter
          (fun (tag, grids) ->
            for g = 0 to grids - 1 do
              if grid_active tag g && not (Hashtbl.mem hits (tag, g)) then
                acc :=
                  {
                    severity = `Error;
                    subject = s.Switch.name;
                    message = Printf.sprintf "no circuit into %s grid %d" tag g;
                  }
                  :: !acc
            done)
          [
            ("v1", Array.length l.Gen.fadu_v1_by_grid);
            ("v2", Array.length l.Gen.fadu_v2_by_grid);
          ];
        !acc
      end
      else acc)
    acc (Topo.switches topo)

let check_connectivity (sc : Gen.scenario) topo ~label acc =
  let l = sc.Gen.layout in
  let rsws = List.concat (Array.to_list l.Gen.rsws_by_dc) in
  let active_rsws = List.filter (Topo.switch_active topo) rsws in
  let reachable = Topo.reachable topo ~from:active_rsws in
  let unreachable_ebbs =
    List.filter (fun e -> not (Kutil.Bitset.mem reachable e)) l.Gen.ebbs
  in
  if not (List.is_empty unreachable_ebbs) then
    {
      severity = `Error;
      subject = label;
      message =
        Printf.sprintf "%d EBB router(s) unreachable from the racks"
          (List.length unreachable_ebbs);
    }
    :: acc
  else acc

let check_scopes (sc : Gen.scenario) acc =
  let drains = sc.Gen.drain_switches in
  let undrains = sc.Gen.undrain_switches in
  let overlap = List.filter (fun s -> List.mem s undrains) drains in
  let acc =
    if not (List.is_empty overlap) then
      {
        severity = `Error;
        subject = "migration scope";
        message =
          Printf.sprintf "%d switch(es) both drained and onboarded"
            (List.length overlap);
      }
      :: acc
    else acc
  in
  let empty =
    match sc.Gen.kind with
    | Gen.Hgrid_v1_to_v2 | Gen.Ssw_forklift ->
        List.is_empty drains || List.is_empty undrains
    | Gen.Dmag ->
        List.is_empty undrains || List.is_empty sc.Gen.drain_circuit_groups
    | Gen.Ocs_rewire ->
        List.is_empty drains || List.is_empty sc.Gen.rewire_groups
    | Gen.Ocs_swap ->
        List.is_empty drains
        || List.is_empty sc.Gen.drain_circuit_groups
        || List.is_empty sc.Gen.undrain_circuit_groups
  in
  if empty then
    {
      severity = `Error;
      subject = "migration scope";
      message = "a migration of this kind needs both drains and onboards";
    }
    :: acc
  else acc

let target_state (sc : Gen.scenario) =
  let topo = Topo.copy sc.Gen.topo in
  List.iter (fun s -> Topo.set_switch_active topo s false) sc.Gen.drain_switches;
  List.iter (fun s -> Topo.set_switch_active topo s true) sc.Gen.undrain_switches;
  List.iter
    (fun (_, circuits) ->
      List.iter (fun j -> Topo.set_circuit_active topo j false) circuits)
    sc.Gen.drain_circuit_groups;
  List.iter
    (fun (_, circuits) ->
      List.iter (fun j -> Topo.set_circuit_active topo j true) circuits)
    sc.Gen.undrain_circuit_groups;
  List.iter
    (fun (_, circuits, new_hi) ->
      List.iter (fun j -> Topo.set_circuit_hi topo j (Some new_hi)) circuits)
    sc.Gen.rewire_groups;
  (* Future circuits whose endpoints are now up come alive with them. *)
  for j = 0 to Topo.n_circuits topo - 1 do
    if
      (not (Topo.circuit_active topo j))
      && Topo.switch_active topo (Topo.endpoint_lo topo j)
      && Topo.switch_active topo (Topo.endpoint_hi topo j)
      && not
           (List.exists
              (fun (_, circuits) -> List.mem j circuits)
              sc.Gen.drain_circuit_groups)
    then Topo.set_circuit_active topo j true
  done;
  topo

let scenario (sc : Gen.scenario) =
  let original = sc.Gen.topo in
  let target = target_state sc in
  []
  |> check_scopes sc
  |> check_port_budgets original
  |> check_rsw_uplinks sc original
  |> check_stripes sc original
  |> check_connectivity sc original ~label:"original topology"
  |> check_port_budgets target
  |> check_stripes sc target
  |> check_connectivity sc target ~label:"target topology"
  |> List.rev
