(* S5, the export rule of klotski-sentinel: a value that a library
   unit's [.mli] declares, at top level or in a nested [sig ... end],
   and that no other unit references, is dead weight in the interface.

   References are counted over every loaded unit, the analyzed trees
   and the reference-only ones (tests, examples) alike, as resolved
   value paths ([Sentinel_callgraph.resolve_value]).  A module used
   whole (a functor argument, an [include], a packed first-class
   module) references every value under it.  Values that a named
   module type brings in ([Hashtbl.S with ...], [include module type
   of ...]) belong to that signature, not to the unit's, and are not
   subjects; neither is a unit without an interface.

   Exports only test units (sources under test/) reference are listed
   in the report, not reported: each stays as a test's oracle,
   reference or pinned counter. *)

open Typedtree
module G = Sentinel_callgraph

(* The keys of every value and whole module [u] references. *)
let references g (u : Sentinel_cmt.unit_info) =
  let uenv = Hashtbl.find g.G.uenvs u.unit_name in
  let scope = Hashtbl.create 1 in
  let refs = Hashtbl.create 256 in
  let value p =
    match G.resolve_value g uenv scope p with
    | G.Global gid -> Hashtbl.replace refs (G.gid_key gid) ()
    | G.Local _ | G.Unresolved -> ()
  in
  let whole me =
    match (G.unwrap_mod me).mod_desc with
    | Tmod_ident (p, _) ->
        Option.iter
          (fun comps -> Hashtbl.replace refs (String.concat "." comps) ())
          (G.resolve_module g uenv p)
    | _ -> ()
  in
  let default = Tast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> value p
          | Texp_letmodule (Some id, _, _, me, _) ->
              G.register_module_rhs g uenv id me
          | Texp_pack me -> whole me
          | _ -> ());
          default.expr it e);
      module_expr =
        (fun it me ->
          (match me.mod_desc with Tmod_apply (_, arg, _) -> whole arg | _ -> ());
          default.module_expr it me);
      module_binding =
        (fun it mb ->
          Option.iter (fun id -> G.register_module_rhs g uenv id mb.mb_expr) mb.mb_id;
          default.module_binding it mb);
      structure_item =
        (fun it item ->
          (match item.str_desc with
          | Tstr_include incl -> whole incl.incl_mod
          | _ -> ());
          default.structure_item it item);
    }
  in
  it.structure it u.str;
  refs

(* The values [u]'s interface declares, with their [.mli] location. *)
let exports (u : Sentinel_cmt.unit_info) =
  match u.intf with
  | None -> []
  | Some (file, sg) ->
      let rec items path sg = List.concat_map (item path) sg.sig_items
      and item path si =
        match si.sig_desc with
        | Tsig_value vd ->
            let vpath = path @ [ vd.val_name.txt ] in
            [ ({ G.unit_ = u.unit_name; vpath }, file, vd.val_loc) ]
        | Tsig_module
            {
              md_name = { txt = Some m; _ };
              md_type = { mty_desc = Tmty_signature sg; _ };
              _;
            } ->
            items (path @ [ m ]) sg
        | _ -> []
      in
      items [] sg

(* [s5 ~subjects units]: findings for the exports of the [subjects] no
   other unit of [units] references, and the display names of those
   only test units reference. *)
let s5 ~subjects units =
  let g = G.register units in
  let refs = List.map (fun u -> (u, references g u)) units in
  let is_test (u : Sentinel_cmt.unit_info) = G.has_prefix "test/" u.source in
  let check (u : Sentinel_cmt.unit_info) (gid, file, loc) =
    (* the value's key and those of the modules it lies in *)
    let keys =
      List.fold_left
        (fun acc c -> match acc with k :: _ -> (k ^ "." ^ c) :: acc | [] -> [ c ])
        [ gid.G.unit_ ] gid.G.vpath
    in
    let users =
      List.filter_map
        (fun ((r : Sentinel_cmt.unit_info), tbl) ->
          if List.exists (Hashtbl.mem tbl) keys then Some r else None)
        refs
    in
    let own (r : Sentinel_cmt.unit_info) = String.equal r.unit_name u.unit_name in
    let name = G.display gid in
    match List.filter (fun r -> not (own r)) users with
    | [] ->
        let why =
          if List.exists own users then
            Printf.sprintf "only %s references it: drop it from the interface"
              (G.display_unit u.unit_name)
          else "nothing references it: delete it"
        in
        `Finding
          (Sentinel_finding.make ~file ~loc ~rule:"S5"
             (Printf.sprintf "%s is exported but %s" name why))
    | others when List.for_all is_test others -> `Test_only name
    | _ -> `Used
  in
  let verdicts =
    List.concat_map (fun u -> List.map (check u) (exports u)) subjects
  in
  ( List.filter_map (function `Finding f -> Some f | _ -> None) verdicts,
    List.filter_map (function `Test_only n -> Some n | _ -> None) verdicts
    |> List.sort String.compare )
