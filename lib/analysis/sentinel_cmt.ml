(* Input for klotski-sentinel: compiler-generated [.cmt] typedtrees.
   Dune always compiles with [-bin-annot], so every module under
   [_build] carries its typed AST; loading those instead of re-parsing
   sources gives the analyzer [Path]-resolved identifiers and the type
   at every use site — aliases, [open]s and functor applications are
   already resolved by the type checker. *)

type unit_info = {
  unit_name : string;  (* compilation unit, e.g. "Cache", "Kutil__Bitset" *)
  source : string;  (* source path as recorded by the compiler *)
  library : bool;  (* compiled into a library ([.objs]), not an executable *)
  loadpath : string list;
      (* the compiler's include path, relative to the build root: rebuilds
         the typing environment at a use site *)
  str : Typedtree.structure;
  intf : (string * Typedtree.signature) option;
      (* a library unit's interface, from the [.cmti] beside its [.cmt]:
         the [.mli] source path and its typed signature (S5's subjects) *)
}

let has_suffix suf path = Filename.check_suffix path suf

(* Deterministic recursive [.cmt] collection.  Dot-directories are
   included: dune hides object directories under [.libname.objs]
   (libraries) and [.exename.eobjs] (executables), and both are
   analyzed — bin/, bench/ and perfbench/ are covered like lib/. *)
let rec collect acc path =
  if Sys.file_exists path && Sys.is_directory path then
    Array.to_list (Sys.readdir path)
    |> List.sort String.compare
    |> List.fold_left (fun acc name -> collect acc (Filename.concat path name)) acc
  else if has_suffix ".cmt" path then path :: acc
  else acc

let in_library path =
  List.exists (has_suffix ".objs") (String.split_on_char '/' path)

(* A library unit's interface: the [.cmti] dune writes beside the
   [.cmt] when the unit has an [.mli]. *)
let read_intf path =
  let cmti = Filename.remove_extension path ^ ".cmti" in
  if not (in_library path && Sys.file_exists cmti) then None
  else
    match Cmt_format.read_cmt cmti with
    | { Cmt_format.cmt_annots = Cmt_format.Interface sg; cmt_sourcefile; _ } ->
        Some (Option.value cmt_sourcefile ~default:cmti, sg)
    | _ -> None

let load_file path =
  match (Cmt_format.read_cmt path, read_intf path) with
  | ( { Cmt_format.cmt_annots = Cmt_format.Implementation str;
        cmt_modname;
        cmt_sourcefile;
        cmt_loadpath;
        _;
      },
      intf ) ->
      let source =
        match cmt_sourcefile with Some s -> s | None -> path
      in
      Ok
        (Some
           {
             unit_name = cmt_modname;
             source;
             library = in_library path;
             loadpath = cmt_loadpath;
             str;
             intf;
           })
  | _ -> Ok None  (* interface or partial cmt: nothing to analyze *)
  | exception exn ->
      Error
        (Sentinel_finding.v ~file:path ~line:1 ~col:0 ~rule:"sentinel"
           (Printf.sprintf "failed to load cmt: %s" (Printexc.to_string exn)))

(* [load ~roots] returns every implementation typedtree under the roots,
   sorted by unit name, plus loader problems as findings.  Duplicate unit
   names (the same library built for byte and native, or the empty
   [Dune__exe] alias unit of each executable) keep the first occurrence
   in path order. *)
let load ~roots =
  let files =
    List.fold_left collect [] roots |> List.sort_uniq String.compare
  in
  let seen = Hashtbl.create 64 in
  let units = ref [] and problems = ref [] in
  List.iter
    (fun path ->
      match load_file path with
      | Ok (Some u) ->
          if not (Hashtbl.mem seen u.unit_name) then begin
            Hashtbl.replace seen u.unit_name ();
            units := u :: !units
          end
      | Ok None -> ()
      | Error f -> problems := f :: !problems)
    files;
  let units =
    List.sort (fun a b -> String.compare a.unit_name b.unit_name) !units
  in
  (units, List.rev !problems)
