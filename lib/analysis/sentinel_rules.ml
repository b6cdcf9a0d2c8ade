(* The graph rules of klotski-sentinel, over the typed call graph
   ([Sentinel_callgraph]) and solved effect lattice ([Sentinel_effect]);
   the site rules R1–R6 are [Sentinel_sites].

   S2  no float accumulation inside hash-order container traversals
       ([Hashtbl.fold]/[iter] and functor instances), including named
       callbacks whose *solved* effect does float arithmetic.
   S3  every function feeding cache keys and ensemble ids lies in the
       deterministic fragment of the lattice (its solved effect has no
       nondeterminism).
   S4  audits the audit trail itself: [[@@klotski.domain_safe]]
       annotations on bindings that hold no mutable state and are never
       written are stale and must be deleted (the driver extends this
       to suppression comments matching no finding, and [Sentinel_sites]
       to [[@@klotski.unchecked]] annotations that excuse no R6 site). *)

module G = Sentinel_callgraph
module E = Sentinel_effect

(* Shadowed module-level bindings register under a synthetic key; only
   the binding that name resolution actually reaches participates in
   the effect solve and rule checks (the shadowed one still counts for
   S4 write-target liveness). *)
let visible g =
  List.filter
    (fun (d : G.def) ->
      match G.find_def g d.G.gid with Some d' -> d' == d | None -> false)
    (G.defs_in_order g)

let direct_effect (d : G.def) =
  List.fold_left
    (fun acc ev ->
      E.join acc
        (match ev with
        | G.Write_shared { guarded = false; _ } ->
            { E.bottom with E.writes_shared = true }
        | G.Write_shared _ | G.Write_own _ ->
            { E.bottom with E.writes_own = true }
        | G.Read_mut _ | G.Hash_iter _ -> { E.bottom with E.reads_mut = true }
        | G.Nondet _ -> { E.bottom with E.nondet = true }
        | G.Io _ -> { E.bottom with E.io = true }
        | G.Float_op _ -> { E.bottom with E.float_arith = true }))
    E.bottom d.G.events

(* A configured root names a def by display ("Vec_key.hash") or
   canonical ("Kutil__Vec_key.hash") form. *)
let match_roots g roots =
  let vis = visible g in
  List.map
    (fun r ->
      ( r,
        List.filter
          (fun (d : G.def) ->
            String.equal (G.display d.G.gid) r
            || String.equal (G.gid_key d.G.gid) r)
          vis ))
    roots

let missing_root ~rule r =
  Sentinel_finding.v ~file:"(sentinel-config)" ~line:0 ~col:0 ~rule
    (Printf.sprintf "configured root %S matches no analyzed definition" r)

(* Audited shared state: every reasoned [[@@klotski.domain_safe]]
   binding, rendered in the report so the audit surface is explicit. *)
let audited g =
  List.filter_map
    (fun (d : G.def) ->
      match d.G.domain_safe with
      | Some (aloc, Some reason) -> Some (d, aloc, reason)
      | _ -> None)
    (visible g)

(* ---------------------------------------------------------------- *)
(* S2: float accumulation under hash-order traversal. *)

let s2 g effects =
  List.concat_map
    (fun (d : G.def) ->
      List.filter_map
        (function
          | G.Hash_iter { loc; what; callback; callback_float } ->
              let offender =
                if callback_float then Some "inline float arithmetic"
                else
                  List.fold_left
                    (fun acc gid ->
                      match acc with
                      | Some _ -> acc
                      | None -> (
                          match G.find_def g gid with
                          | Some cd -> (
                              match
                                Hashtbl.find_opt effects (G.gid_key cd.G.gid)
                              with
                              | Some e when e.E.float_arith ->
                                  Some
                                    (Printf.sprintf
                                       "callback %s accumulates floats"
                                       (G.display cd.G.gid))
                              | _ -> None)
                          | None -> None))
                    None callback
              in
              Option.map
                (fun why ->
                  Sentinel_finding.make ~file:d.G.source ~loc ~rule:"S2"
                    (Printf.sprintf
                       "float accumulation inside hash-order %s (%s) — \
                        traversal order is nondeterministic; sort keys first \
                        (Kutil.Tbl sorted_*)"
                       what why))
                offender
          | _ -> None)
        d.G.events)
    (visible g)

(* ---------------------------------------------------------------- *)
(* S3: key-feeding functions must be deterministic. *)

let s3 g effects ~roots =
  List.concat_map
    (fun (r, defs) ->
      match defs with
      | [] -> [ missing_root ~rule:"S3" r ]
      | defs ->
          List.filter_map
            (fun (d : G.def) ->
              match Hashtbl.find_opt effects (G.gid_key d.G.gid) with
              | Some e when not (E.deterministic e) ->
                  Some
                    (Sentinel_finding.make ~file:d.G.source ~loc:d.G.def_loc
                       ~rule:"S3"
                       (Printf.sprintf
                          "%s feeds cache/ensemble keys but is outside the \
                           deterministic fragment (effects: %s)"
                          (G.display d.G.gid) (E.to_string e)))
              | _ -> None)
            defs)
    (match_roots g roots)

(* ---------------------------------------------------------------- *)
(* S4 (annotation half): dead [[@@klotski.domain_safe]].  An annotation
   is load-bearing iff the binding allocates mutable state at module
   init (the R2 trigger), performs shared writes itself, or is the
   target of a shared write somewhere in the program.  Anything else is
   audit rot. *)

let s4_annotations g =
  let written = Hashtbl.create 64 in
  List.iter
    (fun (d : G.def) ->
      List.iter
        (function
          | G.Write_shared { target; _ } ->
              Hashtbl.replace written (G.gid_key target) ()
          | _ -> ())
        d.G.events)
    (G.defs_in_order g);
  List.filter_map
    (fun (d : G.def) ->
      match d.G.domain_safe with
      | Some (aloc, _) ->
          let writes_shared =
            List.exists
              (function G.Write_shared _ -> true | _ -> false)
              d.G.events
          in
          let live =
            Option.is_some d.G.mutable_init
            || writes_shared
            || Hashtbl.mem written (G.gid_key d.G.gid)
          in
          if live then None
          else
            Some
              (Sentinel_finding.make ~file:d.G.source ~loc:aloc ~rule:"S4"
                 (Printf.sprintf
                    "stale [@@klotski.domain_safe] on %s: the binding holds \
                     no module-level mutable state and is never written — \
                     delete the annotation"
                    (G.display d.G.gid)))
      | None -> None)
    (G.defs_in_order g)
