(** Conversion between NPD documents and migration scenarios.

    This is the front half of the EDP-Lite pipeline (§5): "EDP-Lite takes
    NPD-format original/target topologies … converts them into topologies
    and passes the topologies to Klotski."  A document carries the six
    parts plus a [migration] section naming the migration type; converting
    builds the generator parameters and then the scenario universe.

    [of_params] and [to_params] are mutually inverse on well-formed
    input (property-tested). *)

val of_params : Gen.kind -> Gen.params -> Npd_ast.t
(** Describe a parametric region and its migration as an NPD document. *)

val to_params : Npd_ast.t -> (Gen.kind * Gen.params, string) result
(** Read the generator parameters back.  Missing optional fields take the
    generator defaults; a missing required section is an error, and so
    is a count the generator needs that is not positive: [dcs], [pods],
    [rsws_per_pod], [planes], [ssws_per_plane] and [link_mult] in
    [fabric]; [grids],
    [fadu_per_grid] and [fauu_per_grid] in [hgrid generation=1]; the two
    per-grid counts of [hgrid generation=2] when its [grids] is
    positive; [eb]'s and [dr]'s [count]; and [bb]'s [ebbs].
    [hgrid generation=2]'s [grids] and [ma]'s [count] may be 0 but not
    negative.  Every capacity of a layer the region has must be positive
    and finite: the generation-2 [cap_ssw_fadu] when there is a
    generation-2 grid, [ma]'s capacities when its [count] is positive,
    [cap_fsw_ssw_new] and [cap_ssw_fadu_new] for an SSW forklift, and
    every other capacity always.  A field this function does not read
    from its section (it reads every field {!of_params} writes), a field
    given twice in one section, or a subsection of a section it reads,
    is an error too.  So is a top-level section it does not read (any
    but [fabric], [hgrid], [ma], [eb], [dr], [bb] and [migration]), a
    section given twice ([hgrid] once per generation), a section
    argument other than [hgrid]'s [generation], and a [generation] given
    twice or other than 1 or 2 (an [hgrid] without one is generation 1).
    The error names the section and the field, subsection or
    argument. *)

val to_scenario : Npd_ast.t -> (Gen.scenario, string) result
(** [to_params] followed by [Gen.build]. *)

val load_scenario : string -> (Gen.scenario, string) result
(** Parse a file and convert ({!Npd_parser.parse_file} + {!to_scenario}). *)

val kind_of_id : string -> (Gen.kind, string) result
(** The kind a [migration] section's [kind] names: ["hgrid-v1-to-v2"],
    ["ssw-forklift"], ["dmag"], ["ocs-rewire"] or ["ocs-swap"];
    [Error] names the unknown identifier. *)
