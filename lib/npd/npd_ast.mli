(** The Network Product Definition (NPD) document model.

    NPD is the generic data structure Meta uses to define high-level
    properties of network topologies (§5): it divides a DCN into six parts
    — Fabric, HGRID, MA, EB, DR, BB — describing the switches by role and
    position, their interconnection, the migration phases and the
    hardware.  The production format is internal; this reproduction
    defines a concrete text syntax with the same structure:

    {v
    npd "region-17" {
      # the fabric part
      fabric {
        dcs = 2
        pods = 1
        ...
      }
      hgrid generation=1 {
        grids = 3
        ...
      }
      migration {
        kind = "hgrid-v1-to-v2"
      }
    }
    v}

    A document is a named tree of sections; each section has optional
    [key=value] arguments after its name and contains fields and
    subsections. *)

type value =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

type entry = Field of string * value | Section of section

and section = {
  name : string;
  args : (string * value) list;
  entries : entry list;
}

type t = { doc_name : string; sections : section list }

val equal : t -> t -> bool
(** Structural equality; [Float] values compare with [Float.equal]. *)

(** {1 Accessors} *)

val find_section : t -> string -> section option
(** First top-level section with the given name. *)

val find_sections : t -> string -> section list
(** All top-level sections with the given name, in order. *)

val int_field : section -> string -> default:int -> int
(** Integer field with default; a [Float] with integral value inside
    the [int] range is accepted.  Raises [Failure] on a non-numeric
    value or an integral float outside [\[min_int, max_int\]]. *)

val float_field : section -> string -> default:float -> float
(** Float field with default; [Int] promotes. *)

val string_field : section -> string -> default:string -> string

val value_to_string : value -> string
(** Syntax-faithful rendering (strings come out quoted). *)
