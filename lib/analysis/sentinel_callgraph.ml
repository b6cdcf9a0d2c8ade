(* Whole-program call graph and direct-effect extraction over [.cmt]
   typedtrees.

   Identifiers in a typedtree are [Path]s, already resolved by the type
   checker — [module C = Cache] gives [C.add] a path through the alias
   ident, [open]s are gone, and wrapped-library access appears as
   [Kutil.Vec_key.hash].  This pass canonicalizes every referenced path
   to a global id [(unit, value-path)], flattening dune's
   [Lib__Module] wrapping and chasing module-alias bindings, so the call
   graph connects the same functions however they were spelled at the
   use site.

   For every module-level binding the walk records:
   - the global ids it references (call edges; a function merely passed
     as a value counts too — conservative for reachability),
   - direct effect events: writes classified by the *root* of the
     mutated access path (fresh local allocation / caller-supplied value
     / module-level global), nondeterminism and io primitives, float
     arithmetic, and hash-order container traversals with the callback
     they feed.

   Ownership is deliberately approximate in the safe-for-signal
   direction: writes whose root is a caller-supplied or unknown value
   are the *caller's* responsibility (the per-worker overlay discipline
   makes them the common, safe case), while writes rooted in
   module-level state are the shared writes S4 and the effect lattice
   must see. *)

open Typedtree

type gid = { unit_ : string; vpath : string list }

let gid_key g = String.concat "." (g.unit_ :: g.vpath)

(* "Kutil__Vec_key" displays as "Vec_key": strip through the
   last "__" library-wrapping separator. *)
let display_unit u =
  let n = String.length u in
  let rec last_sep i =
    if i < 0 then None
    else if Char.equal u.[i] '_' && Char.equal u.[i + 1] '_' then Some i
    else last_sep (i - 1)
  in
  match last_sep (n - 2) with
  | Some i when i + 2 < n -> String.sub u (i + 2) (n - i - 2)
  | _ -> u

let display g = String.concat "." (display_unit g.unit_ :: g.vpath)

type event =
  | Write_shared of {
      loc : Location.t;
      target : gid;
      kind : string;
      guarded : bool;  (* Atomic primitive: safe by construction *)
    }
  | Write_own of Location.t
  | Read_mut of Location.t
  | Nondet of { loc : Location.t; what : string }
  | Io of { loc : Location.t; what : string }
  | Float_op of Location.t
  | Hash_iter of {
      loc : Location.t;
      what : string;
      callback : gid list;  (* globals referenced by the callback argument *)
      callback_float : bool;  (* callback does float arithmetic directly *)
    }

type def = {
  gid : gid;
  unit_name : string;
  source : string;
  def_loc : Location.t;
  domain_safe : (Location.t * string option) option;  (* annotation, reason *)
  mutable_init : (Location.t * string) option;
      (* module-load-time mutable allocation in the RHS (the R2 trigger) *)
  expr : expression;
  mutable events : event list;
  mutable calls : gid list;
}

(* Per-unit name environments built during registration and reused for
   the body walk. *)
type uenv = {
  unit_name : string;
  source : string;
  vals : (string, gid) Hashtbl.t;  (* Ident.unique_name -> def gid *)
  mod_alias : (string, string list) Hashtbl.t;
      (* module ident -> canonical comps (module aliases, incl. local) *)
  mod_struct : (string, string list) Hashtbl.t;
      (* module ident -> unit-qualified comps (nested structures) *)
}

type t = {
  unit_set : (string, unit) Hashtbl.t;  (* known compilation units *)
  defs : (string, def) Hashtbl.t;  (* gid_key -> def *)
  mutable def_order : string list;  (* registration order, deterministic *)
  includes : (string, string) Hashtbl.t;
      (* module-prefix key -> dotted canonical path of an included module *)
  uenvs : (string, uenv) Hashtbl.t;  (* unit -> envs *)
}

(* ---------------------------------------------------------------- *)
(* Path canonicalization. *)

let rec path_parts = function
  | Path.Pident id -> (id, [])
  | Path.Pdot (p, s) ->
      let id, rest = path_parts p in
      (id, rest @ [ s ])
  | Path.Papply (a, _) -> path_parts a  (* conservative: keep the functor head *)
  | Path.Pextra_ty (p, _) -> path_parts p

let strip_stdlib = function
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | comps -> comps

(* Flatten dune's wrapped-library access: ["Kutil"; "Bitset"; ...] is
   the compilation unit ["Kutil__Bitset"; ...] when that unit exists. *)
let canon_comps t comps =
  match strip_stdlib comps with
  | m :: m2 :: rest when Hashtbl.mem t.unit_set (m ^ "__" ^ m2) ->
      (m ^ "__" ^ m2) :: rest
  | comps -> comps

let gid_of_comps t comps =
  match canon_comps t comps with
  | [] -> None
  | u :: vpath -> Some { unit_ = u; vpath }

let uid = Ident.unique_name

(* Canonical comps of a module path, chasing alias bindings. *)
let resolve_module t uenv p =
  let id, rest = path_parts p in
  match Hashtbl.find_opt uenv.mod_alias (uid id) with
  | Some comps -> Some (canon_comps t (comps @ rest))
  | None -> (
      match Hashtbl.find_opt uenv.mod_struct (uid id) with
      | Some comps -> Some (canon_comps t (comps @ rest))
      | None ->
          if Ident.global id then Some (canon_comps t (Ident.name id :: rest))
          else None (* functor parameter or other untracked local module *))

type ownership = Fresh | Own | Shared of gid

type resolved = Local of ownership | Global of gid | Unresolved

let resolve_value t uenv scope p =
  match p with
  | Path.Pident id -> (
      match Hashtbl.find_opt scope (uid id) with
      | Some own -> Local own
      | None -> (
          match Hashtbl.find_opt uenv.vals (uid id) with
          | Some g -> Global g
          | None ->
              if Ident.global id then
                Global { unit_ = Ident.name id; vpath = [] }
              else Unresolved))
  | Path.Pdot (pm, name) -> (
      match resolve_module t uenv pm with
      | Some comps -> (
          match gid_of_comps t (comps @ [ name ]) with
          | Some g -> Global g
          | None -> Unresolved)
      | None -> Unresolved)
  | Path.Papply _ | Path.Pextra_ty _ -> Unresolved

(* ---------------------------------------------------------------- *)
(* Builtin effect classification (functions with no loaded definition). *)

type builtin =
  | B_write of { kind : string; target : int; guarded : bool }
  | B_fresh  (* allocates fresh mutable state *)
  | B_read
  | B_deref  (* ! — read, and transparent for write-target rooting *)
  | B_atomic_get  (* transparent for write-target rooting *)
  | B_nondet of string
  | B_io of string
  | B_float
  | B_hash_iter of string
  | B_none

let mem s l = List.exists (String.equal s) l

let has_prefix pre s =
  String.length s >= String.length pre
  && String.equal (String.sub s 0 (String.length pre)) pre

let classify comps =
  match comps with
  | [] -> B_none
  | head :: _ -> (
      let rcomps = List.rev comps in
      let last = List.hd rcomps in
      let prev = match rcomps with _ :: p :: _ -> Some p | _ -> None in
      let prev_is m = match prev with Some p -> String.equal p m | None -> false in
      let dotted = String.concat "." comps in
      match () with
      | _ when String.equal head "Random" && List.length comps > 1 ->
          B_nondet dotted
      | _ when mem dotted [ "Sys.time"; "Unix.gettimeofday"; "Unix.time"; "Domain.self" ]
        ->
          B_nondet dotted
      | _ when prev_is "Hashtbl" && mem last [ "hash"; "seeded_hash"; "hash_param" ]
        ->
          B_nondet dotted
      | _ when prev_is "Atomic" ->
          if String.equal last "get" then B_atomic_get
          else if
            mem last
              [
                "set"; "exchange"; "compare_and_set"; "compare_exchange";
                "fetch_and_add"; "incr"; "decr";
              ]
          then B_write { kind = dotted; target = 0; guarded = true }
          else if String.equal last "make" then B_fresh
          else B_none
      | _ when mem dotted [ ":=" ] -> B_write { kind = "ref assignment"; target = 0; guarded = false }
      | _ when mem dotted [ "incr"; "decr" ] ->
          B_write { kind = dotted; target = 0; guarded = false }
      | _ when String.equal dotted "!" -> B_deref
      | _ when String.equal dotted "ref" -> B_fresh
      | _ when prev_is "Array" || prev_is "Float_array" -> (
          match last with
          | "set" | "unsafe_set" | "fill" | "shuffle" ->
              B_write { kind = dotted; target = 0; guarded = false }
          | "sort" | "stable_sort" | "fast_sort" ->
              (* the comparator comes first; the mutated array second *)
              B_write { kind = dotted; target = 1; guarded = false }
          | "blit" -> B_write { kind = dotted; target = 2; guarded = false }
          | "make" | "init" | "create_float" | "make_matrix" | "copy" | "of_list"
          | "append" | "concat" | "sub" | "map" | "mapi" ->
              B_fresh
          | "get" | "unsafe_get" -> B_read
          | _ -> B_none)
      | _ when prev_is "Kutil__Col" || prev_is "Kutil__Col_prim" -> (
          (* The row kernels' unchecked accessors: effects as [Array]'s
             and [Bytes]'s get and set. *)
          match last with
          | "set" | "set_byte" ->
              B_write { kind = dotted; target = 0; guarded = false }
          | "get" | "get_byte" -> B_read
          | _ -> B_none)
      | _ when prev_is "Bytes" -> (
          match last with
          | "set" | "unsafe_set" | "fill" ->
              B_write { kind = dotted; target = 0; guarded = false }
          | "blit" | "blit_string" | "unsafe_blit" ->
              B_write { kind = dotted; target = 2; guarded = false }
          | "make" | "create" | "copy" | "of_string" | "sub" | "cat" | "init" ->
              B_fresh
          | "get" | "unsafe_get" -> B_read
          | _ -> B_none)
      | _ when prev_is "Hashtbl" || prev_is "Table" || prev_is "Tbl" -> (
          match last with
          | "replace" | "add" | "remove" | "reset" | "clear"
          | "filter_map_inplace" ->
              B_write { kind = dotted; target = 0; guarded = false }
          | "create" | "copy" | "of_seq" -> B_fresh
          | "find" | "find_opt" | "find_all" | "mem" | "length" | "stats" ->
              B_read
          | "fold" | "iter" -> B_hash_iter dotted
          | _ -> B_none)
      | _ when prev_is "Buffer" ->
          if has_prefix "add_" last || mem last [ "clear"; "reset"; "truncate" ]
          then B_write { kind = dotted; target = 0; guarded = false }
          else if String.equal last "create" then B_fresh
          else if mem last [ "contents"; "length"; "nth" ] then B_read
          else B_none
      | _ when prev_is "Queue" -> (
          match last with
          | "add" | "push" -> B_write { kind = dotted; target = 1; guarded = false }
          | "pop" | "take" | "clear" | "transfer" ->
              B_write { kind = dotted; target = 0; guarded = false }
          | "create" -> B_fresh
          | "peek" | "length" | "is_empty" -> B_read
          | _ -> B_none)
      | _ when prev_is "Stack" -> (
          match last with
          | "push" -> B_write { kind = dotted; target = 1; guarded = false }
          | "pop" | "clear" -> B_write { kind = dotted; target = 0; guarded = false }
          | "create" -> B_fresh
          | "top" | "length" | "is_empty" -> B_read
          | _ -> B_none)
      | _ when
          mem dotted
            [
              "print_endline"; "print_string"; "print_newline"; "print_char";
              "print_int"; "print_float"; "prerr_endline"; "prerr_string";
              "prerr_newline"; "output_string"; "output_char"; "output_byte";
              "output"; "open_out"; "open_out_bin"; "open_in"; "open_in_bin";
              "close_out"; "close_in"; "flush"; "flush_all"; "input_line";
              "input_char"; "really_input"; "really_input_string"; "read_line";
              "Printf.printf"; "Printf.eprintf"; "Format.printf";
              "Format.eprintf"; "Format.err_formatter"; "Format.std_formatter";
              "Sys.command";
            ] ->
          B_io dotted
      | _ when mem head [ "Out_channel"; "In_channel" ] -> B_io dotted
      | _ when
          String.equal head "Unix"
          && mem last
               [
                 "openfile"; "read"; "write"; "single_write"; "close"; "mkdir";
                 "rmdir"; "unlink"; "rename"; "system"; "fork"; "waitpid";
                 "execv"; "execve"; "execvp"; "pipe"; "socket";
               ] ->
          B_io dotted
      | _ when mem dotted [ "+."; "-."; "*."; "/."; "~-."; "**" ] -> B_float
      | _ when
          prev_is "Float" && mem last [ "add"; "sub"; "mul"; "div"; "fma"; "neg" ]
        ->
          B_float
      | _ -> B_none)

(* ---------------------------------------------------------------- *)
(* Registration (phase A): module-level defs, aliases, includes. *)

let create () =
  {
    unit_set = Hashtbl.create 64;
    defs = Hashtbl.create 256;
    def_order = [];
    includes = Hashtbl.create 16;
    uenvs = Hashtbl.create 64;
  }

(* [[@@klotski.<name> "reason"]]: the annotation and its reason string,
   [None] when the payload is not a non-blank string.  Only a reasoned
   annotation vouches for anything. *)
let reasoned_attr name attrs =
  List.fold_left
    (fun acc (a : Parsetree.attribute) ->
      if String.equal a.attr_name.txt name then
        let reason =
          match a.attr_payload with
          | Parsetree.PStr
              [
                {
                  pstr_desc =
                    Pstr_eval
                      ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                        _ );
                  _;
                };
              ]
            when not (String.equal (String.trim s) "") ->
              Some s
          | _ -> None
        in
        Some (a.attr_loc, reason)
      else acc)
    None attrs

(* [[@@klotski.domain_safe]] vouches for shared mutable state (R2),
   [[@@klotski.unchecked]] for unchecked access (R6). *)
let domain_safe_attr = reasoned_attr "klotski.domain_safe"
let unchecked_attr = reasoned_attr "klotski.unchecked"

let reasoned = function Some (_, Some _) -> true | _ -> false

let rec unwrap_mod me =
  match me.mod_desc with
  | Tmod_constraint (me, _, _, _) -> unwrap_mod me
  | _ -> me

exception Found_mut of Location.t * string

(* First mutable allocation evaluated at module-initialization time
   (function and lazy bodies run later), over resolved paths. *)
let find_mutable_init t uenv e =
  let scope = Hashtbl.create 1 in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          match e.exp_desc with
          | Texp_function _ | Texp_lazy _ -> ()
          | Texp_array (_ :: _) -> raise (Found_mut (e.exp_loc, "array literal"))
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
              let comps =
                match resolve_value t uenv scope p with
                | Global g -> strip_stdlib (g.unit_ :: g.vpath)
                | _ -> []
              in
              match classify comps with
              | B_fresh -> raise (Found_mut (e.exp_loc, String.concat "." comps))
              | _ -> Tast_iterator.default_iterator.expr it e)
          | _ -> Tast_iterator.default_iterator.expr it e);
    }
  in
  try
    it.expr it e;
    None
  with Found_mut (loc, kind) -> Some (loc, kind)

let register_def t uenv ~path ~name ~loc ~attrs expr =
  let gid = { unit_ = uenv.unit_name; vpath = path @ [ name ] } in
  let key = gid_key gid in
  let key =
    (* Module-level shadowing: keep both defs distinguishable. *)
    if Hashtbl.mem t.defs key then
      Printf.sprintf "%s@%d" key loc.Location.loc_start.Lexing.pos_lnum
    else key
  in
  let def =
    {
      gid;
      unit_name = uenv.unit_name;
      source = uenv.source;
      def_loc = loc;
      domain_safe = domain_safe_attr attrs;
      mutable_init = find_mutable_init t uenv expr;
      expr;
      events = [];
      calls = [];
    }
  in
  Hashtbl.replace t.defs key def;
  t.def_order <- key :: t.def_order;
  def

(* Functor instances of [Hashtbl.Make] get a pseudo-alias ["Table"] so
   later references through them classify as hash-table operations. *)
let register_module_rhs t uenv id me =
  match (unwrap_mod me).mod_desc with
  | Tmod_ident (p, _) -> (
      match resolve_module t uenv p with
      | Some comps -> Hashtbl.replace uenv.mod_alias (uid id) comps
      | None -> ())
  | Tmod_apply (f, _, _) -> (
      match (unwrap_mod f).mod_desc with
      | Tmod_ident (p, _) -> (
          match resolve_module t uenv p with
          | Some comps
            when mem (String.concat "." comps)
                   [ "Hashtbl.Make"; "Hashtbl.MakeSeeded"; "MoreLabels.Hashtbl.Make" ]
            ->
              Hashtbl.replace uenv.mod_alias (uid id) [ "Table" ]
          | _ -> ())
      | _ -> ())
  | _ -> ()

let synth_name prefix (loc : Location.t) =
  Printf.sprintf "_%s_%d" prefix loc.loc_start.Lexing.pos_lnum

let rec register_structure t uenv ~path str =
  List.iter (register_item t uenv ~path) str.str_items

and register_item t uenv ~path item =
  match item.str_desc with
  | Tstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          match pat_bound_idents vb.vb_pat with
          | [] ->
              ignore
                (register_def t uenv ~path
                   ~name:(synth_name "init" vb.vb_loc)
                   ~loc:vb.vb_loc ~attrs:vb.vb_attributes vb.vb_expr)
          | ids ->
              List.iter
                (fun id ->
                  let def =
                    register_def t uenv ~path ~name:(Ident.name id)
                      ~loc:vb.vb_loc ~attrs:vb.vb_attributes vb.vb_expr
                  in
                  Hashtbl.replace uenv.vals (uid id) def.gid)
                ids)
        vbs
  | Tstr_eval (e, attrs) ->
      ignore
        (register_def t uenv ~path
           ~name:(synth_name "eval" item.str_loc)
           ~loc:item.str_loc ~attrs e)
  | Tstr_module mb -> register_mb t uenv ~path mb
  | Tstr_recmodule mbs -> List.iter (register_mb t uenv ~path) mbs
  | Tstr_include incl -> (
      match (unwrap_mod incl.incl_mod).mod_desc with
      | Tmod_ident (p, _) -> (
          match resolve_module t uenv p with
          | Some comps ->
              let prefix = String.concat "." (uenv.unit_name :: path) in
              Hashtbl.replace t.includes prefix (String.concat "." comps)
              |> ignore
          | None -> ())
      | Tmod_structure s -> register_structure t uenv ~path s
      | _ -> ())
  | _ -> ()

and register_mb t uenv ~path mb =
  match mb.mb_id with
  | None -> ()
  | Some id -> (
      match (unwrap_mod mb.mb_expr).mod_desc with
      | Tmod_structure s ->
          let sub = path @ [ Ident.name id ] in
          Hashtbl.replace uenv.mod_struct (uid id) (uenv.unit_name :: sub);
          register_structure t uenv ~path:sub s
      | _ -> register_module_rhs t uenv id mb.mb_expr)

let register_unit t (u : Sentinel_cmt.unit_info) =
  let uenv =
    {
      unit_name = u.unit_name;
      source = u.source;
      vals = Hashtbl.create 64;
      mod_alias = Hashtbl.create 8;
      mod_struct = Hashtbl.create 8;
    }
  in
  Hashtbl.replace t.uenvs u.unit_name uenv;
  register_structure t uenv ~path:[] u.str

(* ---------------------------------------------------------------- *)
(* Body walk (phase B): events and call edges per def. *)

let first_args args n =
  (* [n]-th positional (unlabelled, present) argument. *)
  let rec go i = function
    | [] -> None
    | (Asttypes.Nolabel, Some a) :: rest ->
        if i = n then Some a else go (i + 1) rest
    | _ :: rest -> go i rest
  in
  go 0 args

let comps_of_global g = strip_stdlib (g.unit_ :: g.vpath)

(* Root of a mutated access path: who owns the storage being written? *)
let rec root_of t uenv scope e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
      match resolve_value t uenv scope p with
      | Local own -> own
      | Global g -> Shared g
      | Unresolved -> Own)
  | Texp_field (e, _, _) -> root_of t uenv scope e
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
      let transparent =
        match resolve_value t uenv scope p with
        | Global g -> (
            match classify (comps_of_global g) with
            | B_atomic_get | B_deref -> true
            | _ -> false)
        | _ -> false
      in
      if transparent then
        match first_args args 0 with
        | Some a -> root_of t uenv scope a
        | None -> Own
      else Own)
  | Texp_array _ | Texp_record _ | Texp_tuple _ -> Fresh
  | _ -> Own

(* Does the callback expression contain float arithmetic directly? *)
exception Found_float

let callback_float t uenv scope cb =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_constant (Const_float _) -> raise Found_float
          | Texp_ident (p, _, _) -> (
              match resolve_value t uenv scope p with
              | Global g -> (
                  match classify (comps_of_global g) with
                  | B_float -> raise Found_float
                  | _ -> ())
              | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  try
    it.expr it cb;
    false
  with Found_float -> true

(* Globals referenced by the callback argument of a hash-order
   traversal: named accumulation helpers the interprocedural S2 check
   must chase. *)
let callback_gids t uenv scope cb =
  let acc = Hashtbl.create 8 in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> (
              match resolve_value t uenv scope p with
              | Global g -> Hashtbl.replace acc (gid_key g) g
              | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it cb;
  Hashtbl.fold (fun _ g l -> g :: l) acc []
  |> List.sort (fun a b -> String.compare (gid_key a) (gid_key b))

let scan_def t uenv (def : def) =
  let scope = Hashtbl.create 32 in
  let calls = Hashtbl.create 32 in
  let handled = Hashtbl.create 32 in
  let mark (loc : Location.t) =
    Hashtbl.replace handled loc.loc_start.Lexing.pos_cnum ()
  in
  let is_handled (loc : Location.t) =
    Hashtbl.mem handled loc.loc_start.Lexing.pos_cnum
  in
  let add ev = def.events <- ev :: def.events in
  let note_call g = Hashtbl.replace calls (gid_key g) g in
  let add_write ~loc ~kind ~guarded target_e =
    match root_of t uenv scope target_e with
    | Fresh -> ()
    | Own -> if not guarded then add (Write_own loc)
    | Shared target ->
        (* Guarded (atomic) writes are recorded too: the effect lattice
           skips them, but S4 needs them to know the written state is
           live. *)
        add (Write_shared { loc; target; kind; guarded })
  in
  let classify_of p =
    match resolve_value t uenv scope p with
    | Global g ->
        note_call g;
        Some (g, classify (comps_of_global g))
    | Local _ | Unresolved -> None
  in
  let rhs_class e =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
        match resolve_value t uenv scope p with
        | Global g -> (
            match classify (comps_of_global g) with
            | B_fresh -> Fresh
            | B_atomic_get | B_deref ->
                (* [let s = Atomic.get cell] aliases the cell's contents:
                   writes through [s] keep the cell's ownership. *)
                root_of t uenv scope e
            | _ -> Own)
        | _ -> Own)
    | _ -> root_of t uenv scope e
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_let (_, vbs, _) ->
              List.iter
                (fun vb ->
                  let cls = rhs_class vb.vb_expr in
                  List.iter
                    (fun id -> Hashtbl.replace scope (uid id) cls)
                    (pat_bound_idents vb.vb_pat))
                vbs
          | Texp_letmodule (Some id, _, _, me, _) ->
              register_module_rhs t uenv id me
          | Texp_setfield (r, _, lbl, _) ->
              add_write ~loc:e.exp_loc
                ~kind:("mutable field " ^ lbl.Types.lbl_name)
                ~guarded:false r
          | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as fn), args)
            -> (
              mark fn.exp_loc;
              match classify_of p with
              | None -> ()
              | Some (_, b) -> (
                  match b with
                  | B_write { kind; target; guarded } -> (
                      match first_args args target with
                      | Some tgt -> add_write ~loc:e.exp_loc ~kind ~guarded tgt
                      | None -> if not guarded then add (Write_own e.exp_loc))
                  | B_hash_iter what -> (
                      match first_args args 0 with
                      | Some cb ->
                          add
                            (Hash_iter
                               {
                                 loc = e.exp_loc;
                                 what;
                                 callback = callback_gids t uenv scope cb;
                                 callback_float = callback_float t uenv scope cb;
                               })
                      | None -> ())
                  | B_nondet what -> add (Nondet { loc = e.exp_loc; what })
                  | B_io what -> add (Io { loc = e.exp_loc; what })
                  | B_float -> add (Float_op e.exp_loc)
                  | B_read | B_deref | B_atomic_get -> add (Read_mut e.exp_loc)
                  | B_fresh | B_none -> ()))
          | Texp_ident (p, _, _) when not (is_handled e.exp_loc) -> (
              match classify_of p with
              | None -> ()
              | Some (_, b) -> (
                  match b with
                  | B_nondet what -> add (Nondet { loc = e.exp_loc; what })
                  | B_io what -> add (Io { loc = e.exp_loc; what })
                  | B_float -> add (Float_op e.exp_loc)
                  | B_write _ ->
                      (* A bare mutator passed as a value: the target is
                         invisible, record a caller-owned write. *)
                      add (Write_own e.exp_loc)
                  | B_read | B_deref | B_atomic_get -> add (Read_mut e.exp_loc)
                  | B_fresh | B_hash_iter _ | B_none -> ()))
          | Texp_field (_, _, lbl)
            when (match lbl.Types.lbl_mut with
                 | Asttypes.Mutable -> true
                 | Asttypes.Immutable -> false) ->
              add (Read_mut e.exp_loc)
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it def.expr;
  def.events <- List.rev def.events;
  def.calls <-
    Hashtbl.fold (fun _ g l -> g :: l) calls []
    |> List.sort (fun a b -> String.compare (gid_key a) (gid_key b))

(* ---------------------------------------------------------------- *)

(* Phase A alone: enough to resolve every path the units spell
   ([resolve_value]), which is all S5's reference count needs. *)
let register (units : Sentinel_cmt.unit_info list) =
  let t = create () in
  List.iter (fun (u : Sentinel_cmt.unit_info) ->
      Hashtbl.replace t.unit_set u.unit_name ())
    units;
  List.iter (register_unit t) units;
  t.def_order <- List.rev t.def_order;
  t

let build units =
  let t = register units in
  List.iter
    (fun key ->
      let def = Hashtbl.find t.defs key in
      match Hashtbl.find_opt t.uenvs def.unit_name with
      | Some uenv -> scan_def t uenv def
      | None -> ())
    t.def_order;
  t

(* Def lookup, falling back through [include]s: a unit that includes
   another re-exports its values, so [A.f] may be defined as [B.f]. *)
let find_def t g =
  let rec go g depth =
    if depth > 4 then None
    else
      match Hashtbl.find_opt t.defs (gid_key g) with
      | Some d -> Some d
      | None -> (
          let prefix =
            String.concat "."
              (g.unit_
              ::
              (match g.vpath with
              | [] -> []
              | vp -> List.filteri (fun i _ -> i < List.length vp - 1) vp))
          in
          match (Hashtbl.find_opt t.includes prefix, List.rev g.vpath) with
          | Some target, last :: _ -> (
              match gid_of_comps t (String.split_on_char '.' target @ [ last ]) with
              | Some g' -> go g' (depth + 1)
              | None -> None)
          | _ -> None)
  in
  go g 0

let defs_in_order t =
  List.map (fun k -> Hashtbl.find t.defs k) t.def_order
