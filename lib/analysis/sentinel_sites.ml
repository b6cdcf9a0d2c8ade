(* The site rules of klotski-sentinel: R1–R6 need no call graph, only
   each unit's typedtree, its resolved paths ([Sentinel_callgraph]'s
   per-unit alias tables) and the type at each use site.  One
   [Tast_iterator] pass over the whole unit serves R1, R3, R4, R5 and R6,
   so functor-application arguments, which the call graph does not
   register as defs, are covered too.

   R1  Stdlib [compare], [=], [<>], [<], [>], [<=], [>=], [min], [max]
       and the [Hashtbl.hash] family at a type the compiler does not
       specialise: the generic runtime walks the whole value, orders
       NaN and [-0.] surprisingly, and changes its answer when a type
       gains a field.  [=]/[<>] against a constant constructor is an
       immediate test and passes.
   R2  every module-level mutable allocation in a library unit, nested
       modules and functor arguments included, carries
       [[@@klotski.domain_safe "reason"]]: every domain shares it.
   R3  [=]/[<>] at type float, literal or not: use [Float.equal].
   R4  no nondeterminism source (clocks, PRNGs, domain identity)
       outside lib/util/{prng,timer}.ml.
   R5  no printing in library units outside [Table_fmt].
   R6  no unchecked access ([Array.unsafe_get]/[unsafe_set],
       [Bytes.unsafe_get]/[unsafe_set], [String.unsafe_get],
       [Float.Array.unsafe_get]/[unsafe_set], [Char.unsafe_chr], their
       [*Labels] twins, or an [external] bound to an unchecked
       primitive) outside lib/util/col.ml and its [Col_prim], unless
       the enclosing binding carries [[@@klotski.unchecked "reason"]]
       saying what proves the indices.  [Kutil.Col] proves them once,
       where the data is built; R6 keeps the rest of the tree checked.

   A [[@@klotski.domain_safe]] or [[@@klotski.unchecked]] without a
   reason string is a [lint] finding wherever it appears, and vouches
   for nothing. *)

open Typedtree
module G = Sentinel_callgraph

let generic_ops = [ "compare"; "="; "<>"; "<"; ">"; "<="; ">="; "min"; "max" ]

let hash_args =
  [ ("hash", 0); ("seeded_hash", 1); ("hash_param", 2); ("seeded_hash_param", 3) ]

(* An R1 site: the operation and the index of its polymorphic argument. *)
let r1_site = function
  | [ op ] when G.mem op generic_ops -> Some (op, 0)
  | [ "Hashtbl"; f ] ->
      Option.map (fun i -> ("Hashtbl." ^ f, i)) (List.assoc_opt f hash_args)
  | _ -> None

let unchecked_values =
  [
    "Array.unsafe_get"; "Array.unsafe_set"; "ArrayLabels.unsafe_get";
    "ArrayLabels.unsafe_set"; "Bytes.unsafe_get"; "Bytes.unsafe_set";
    "BytesLabels.unsafe_get"; "BytesLabels.unsafe_set"; "String.unsafe_get";
    "StringLabels.unsafe_get"; "Float.Array.unsafe_get";
    "Float.Array.unsafe_set"; "Float.ArrayLabels.unsafe_get";
    "Float.ArrayLabels.unsafe_set"; "Char.unsafe_chr";
  ]

(* A primitive that skips a range check: the [unsafe] family
   ([%array_unsafe_get], [%caml_ba_unsafe_ref_1], ...) and the
   [u]-suffixed multi-byte accessors ([%caml_bytes_get64u], ...). *)
let unchecked_prim p =
  Option.is_some (Sentinel_suppress.find_sub p "unsafe")
  || (G.has_prefix "%caml_" p && String.ends_with ~suffix:"u" p)

let printers =
  [
    "print_endline"; "print_string"; "print_newline"; "print_char";
    "print_int"; "print_float"; "prerr_endline"; "prerr_string";
    "prerr_newline"; "Printf.printf"; "Printf.eprintf"; "Format.printf";
    "Format.eprintf"; "Format.print_string"; "Format.print_newline";
  ]

(* The compiler's own test (Translprim's specialisation of comparison
   primitives): a base type, or a type whose values are all immediate. *)
let specialised env ty =
  List.exists
    (Typeopt.is_base_type env ty)
    Predef.
      [
        path_int; path_char; path_float; path_string; path_bytes; path_int32;
        path_int64; path_nativeint;
      ]
  ||
  match Typeopt.maybe_pointer_type env ty with
  | Lambda.Immediate -> true
  | Lambda.Pointer -> false

let rec nth_arg env ty n =
  match Typeopt.is_function_type env ty with
  | Some (arg, _) when n = 0 -> Some arg
  | Some (_, res) -> nth_arg env res (n - 1)
  | None -> None

(* The rule and message for an R1 site, [None] when the compiler
   specialises it.  The type is read in the use site's environment,
   rebuilt from the cmt's summary. *)
let r1_verdict (e : expression) op i =
  let env = Envaux.env_of_only_summary e.exp_env in
  match nth_arg env e.exp_type i with
  | None -> Some ("R1", Printf.sprintf "%s: its type has no argument %d" op i)
  | Some ty ->
      if
        (String.equal op "=" || String.equal op "<>")
        && Typeopt.is_base_type env ty Predef.path_float
      then Some ("R3", Printf.sprintf "float equality with %s: use Float.equal" op)
      else if specialised env ty then None
      else
        Some
          ( "R1",
            Format.asprintf
              "polymorphic %s at type %a: the compiler cannot specialise it, \
               so the generic runtime walks the whole value; use a dedicated \
               function (Int.compare, String.equal, a hash of the fields, ...) \
               or give the argument a base type"
              op Printtyp.type_expr ty )

(* Translprim's [has_constant_constructor] case: [=] or [<>] applied to
   two arguments, one of them a constant constructor or an argument-less
   polymorphic variant, compiles to an immediate [==]/[!=] whatever the
   type.  [<], [compare] and the rest have no such case. *)
let constant_arg (e : expression) =
  match e.exp_desc with
  | Texp_construct (_, { cstr_tag = Cstr_constant _; _ }, _)
  | Texp_variant (_, None) ->
      true
  | _ -> false

let has_any_suffix file = List.exists (fun s -> Filename.check_suffix file s)

let check g (u : Sentinel_cmt.unit_info) =
  let uenv = Hashtbl.find g.G.uenvs u.unit_name in
  let scope = Hashtbl.create 1 in
  let findings = ref [] in
  let report ~loc rule msg =
    findings := Sentinel_finding.make ~file:u.source ~loc ~rule msg :: !findings
  in
  let r4 = not (has_any_suffix u.source [ "util/prng.ml"; "util/timer.ml" ]) in
  let r5 =
    u.library && not (has_any_suffix u.source [ "util/table_fmt.ml" ])
  in
  let r6 = not (has_any_suffix u.source [ "util/col.ml"; "util/col_prim.ml" ]) in
  (* [vouched] is set while the walk is inside a binding with a reasoned
     [[@@klotski.unchecked]]; [excused] counts the sites it excused. *)
  let vouched = ref false and excused = ref 0 in
  let r6_report ~loc what =
    if not r6 then ()
    else if !vouched then incr excused
    else
      report ~loc "R6"
        (Printf.sprintf
           "unchecked access (%s) outside Kutil.Col: prove the index where \
            the data is built and go through Kutil.Col, or give the binding \
            [@@klotski.unchecked \"reason\"]"
           what)
  in
  let lint_unreasoned attrs =
    match G.unchecked_attr attrs with
    | Some (loc, None) ->
        report ~loc "lint"
          "[@@klotski.unchecked] requires a reason string; without one it \
           vouches for nothing"
    | _ -> ()
  in
  (* Walk [f] under the binding's annotation, if reasoned; one that
     excuses no site is stale (S4, as for [[@@klotski.domain_safe]]). *)
  let vouching attrs f =
    match G.unchecked_attr attrs with
    | Some (loc, Some _) ->
        let saved = !vouched and before = !excused in
        vouched := true;
        Fun.protect ~finally:(fun () -> vouched := saved) f;
        if !excused = before then
          report ~loc "S4"
            "[@@klotski.unchecked] on a binding with no unchecked access is \
             stale: delete it"
    | _ -> f ()
  in
  (* Envaux reads the cmis on the unit's own include path. *)
  let loadpath =
    lazy
      (Load_path.init ~auto_include:Load_path.no_auto_include u.loadpath;
       Envaux.reset_cache ())
  in
  let site (e : expression) comps =
    (let dotted = String.concat "." comps in
     if G.mem dotted unchecked_values then r6_report ~loc:e.exp_loc dotted);
    match r1_site comps with
    | Some (op, i) -> (
        match
          Lazy.force loadpath;
          r1_verdict e op i
        with
        | Some (rule, msg) -> report ~loc:e.exp_loc rule msg
        | None -> ()
        | exception exn ->
            let why =
              match exn with
              | Envaux.Error err ->
                  String.trim (Format.asprintf "%a" Envaux.report_error err)
              | exn -> Printexc.to_string exn
            in
            report ~loc:e.exp_loc "R1"
              (Printf.sprintf
                 "%s: the typing environment cannot be rebuilt (%s), so its \
                  type is unchecked"
                 op why))
    | None -> (
        match G.classify comps with
        | G.B_nondet what when r4 ->
            report ~loc:e.exp_loc "R4"
              (Printf.sprintf
                 "nondeterminism source %s: only lib/util/{prng,timer}.ml may \
                  read clocks, PRNGs or domain identity"
                 what)
        | _ ->
            let f = String.concat "." comps in
            if r5 && G.mem f printers then
              report ~loc:e.exp_loc "R5"
                (Printf.sprintf
                   "direct printing (%s) in a library: route output through \
                    Table_fmt"
                   f))
  in
  let comps_of (p : Path.t) =
    match G.resolve_value g uenv scope p with
    | G.Global gid -> Some (G.comps_of_global gid)
    | G.Local _ | G.Unresolved -> None
  in
  let immediate_test (f : expression) args =
    match (f.exp_desc, args) with
    | Texp_ident (p, _, _), [ (_, Some a); (_, Some b) ]
      when constant_arg a || constant_arg b -> (
        match comps_of p with Some [ ("=" | "<>") ] -> true | _ -> false)
    | _ -> false
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          match e.exp_desc with
          | Texp_apply (f, args) when immediate_test f args ->
              (* [f] is no site: walk the arguments only. *)
              List.iter (fun (_, a) -> Option.iter (it.expr it) a) args
          | Texp_ident (p, _, _) ->
              Option.iter (site e) (comps_of p);
              Tast_iterator.default_iterator.expr it e
          | _ -> Tast_iterator.default_iterator.expr it e);
      module_binding =
        (fun it mb ->
          (* Aliases the call graph did not register (inside functor
             arguments) resolve like module-level ones. *)
          Option.iter (fun id -> G.register_module_rhs g uenv id mb.mb_expr) mb.mb_id;
          Tast_iterator.default_iterator.module_binding it mb);
      value_binding =
        (fun it vb ->
          (match G.domain_safe_attr vb.vb_attributes with
          | Some (loc, None) ->
              report ~loc "lint"
                "[@@klotski.domain_safe] requires a reason string; without \
                 one it vouches for nothing"
          | _ -> ());
          lint_unreasoned vb.vb_attributes;
          vouching vb.vb_attributes (fun () ->
              Tast_iterator.default_iterator.value_binding it vb));
      structure_item =
        (fun it item ->
          (match item.str_desc with
          | Tstr_primitive vd ->
              lint_unreasoned vd.val_attributes;
              vouching vd.val_attributes (fun () ->
                  List.iter
                    (fun p ->
                      if unchecked_prim p then
                        r6_report ~loc:vd.val_loc
                          (Printf.sprintf "external %s = %S" vd.val_name.txt p))
                    vd.val_prim)
          | _ -> ());
          Tast_iterator.default_iterator.structure_item it item);
    }
  in
  it.structure it u.str;
  (* R2: module-level bindings only; function and lazy bodies allocate
     later, per call ([G.find_mutable_init]). *)
  let rec r2_structure str = List.iter r2_item str.str_items
  and r2_item item =
    match item.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            if not (G.reasoned (G.domain_safe_attr vb.vb_attributes)) then
              match G.find_mutable_init g uenv vb.vb_expr with
              | Some (loc, kind) ->
                  report ~loc "R2"
                    (Printf.sprintf
                       "module-level mutable state (%s) in a library: every \
                        domain shares it; annotate [@@klotski.domain_safe \
                        \"reason\"] with the discipline that makes it safe"
                       kind)
              | None -> ())
          vbs
    | Tstr_module mb -> r2_module mb.mb_expr
    | Tstr_recmodule mbs -> List.iter (fun mb -> r2_module mb.mb_expr) mbs
    | Tstr_include incl -> r2_module incl.incl_mod
    | _ -> ()
  and r2_module me =
    match me.mod_desc with
    | Tmod_structure s -> r2_structure s
    | Tmod_constraint (me, _, _, _) | Tmod_apply_unit me -> r2_module me
    | Tmod_apply (f, arg, _) ->
        r2_module f;
        r2_module arg
    | _ -> ()
  in
  if u.library then r2_structure u.str;
  !findings
