type value = Int of int | Float of float | String of string | Bool of bool

type entry = Field of string * value | Section of section

and section = {
  name : string;
  args : (string * value) list;
  entries : entry list;
}

type t = { doc_name : string; sections : section list }

let value_equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | String x, String y -> String.equal x y
  | Bool x, Bool y -> x = y
  | (Int _ | Float _ | String _ | Bool _), _ -> false

let rec entry_equal a b =
  match (a, b) with
  | Field (ka, va), Field (kb, vb) -> String.equal ka kb && value_equal va vb
  | Section sa, Section sb -> section_equal sa sb
  | (Field _ | Section _), _ -> false

and section_equal a b =
  String.equal a.name b.name
  && List.length a.args = List.length b.args
  && List.for_all2
       (fun (ka, va) (kb, vb) -> String.equal ka kb && value_equal va vb)
       a.args b.args
  && List.length a.entries = List.length b.entries
  && List.for_all2 entry_equal a.entries b.entries

let equal a b =
  String.equal a.doc_name b.doc_name
  && List.length a.sections = List.length b.sections
  && List.for_all2 section_equal a.sections b.sections

let find_sections t name =
  List.filter (fun s -> String.equal s.name name) t.sections

let find_section t name =
  match find_sections t name with [] -> None | s :: _ -> Some s

let field section key =
  List.find_map
    (function
      | Field (k, v) when String.equal k key -> Some v
      | Field _ | Section _ -> None)
    section.entries

let int_field section key ~default =
  match field section key with
  | None -> default
  | Some (Int i) -> i
  | Some (Float f) when Float.is_integer f ->
      (* [int_of_float] of an integral float past the int range is
         unspecified (it wraps to some other int). *)
      if f >= Float.of_int min_int && f < Float.of_int max_int then int_of_float f
      else
        failwith
          (Printf.sprintf "NPD field %s: %.0f is outside the integer range" key f)
  | Some v ->
      failwith
        (Printf.sprintf "NPD field %s: expected integer, got %s" key
           (match v with
           | String s -> Printf.sprintf "%S" s
           | Bool b -> string_of_bool b
           | Float f -> string_of_float f
           | Int i -> string_of_int i))

let float_field section key ~default =
  match field section key with
  | None -> default
  | Some (Float f) -> f
  | Some (Int i) -> float_of_int i
  | Some (String _ | Bool _) ->
      failwith (Printf.sprintf "NPD field %s: expected number" key)

let string_field section key ~default =
  match field section key with
  | Some (String s) -> s
  | Some (Int _ | Float _ | Bool _) ->
      failwith (Printf.sprintf "NPD field %s: expected string" key)
  | None -> default

let value_to_string = function
  | Int i -> string_of_int i
  | Float f ->
      (* Keep a decimal point or exponent so the lexer reads it back as a
         float. *)
      let s = Printf.sprintf "%.17g" f in
      if
        String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') s
      then s
      else s ^ "."
  | String s -> Printf.sprintf "%S" s
  | Bool b -> string_of_bool b
