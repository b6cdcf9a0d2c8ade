open Npd_lexer

exception Parse_error of string * position

let fail pos fmt = Printf.ksprintf (fun msg -> raise (Parse_error (msg, pos))) fmt

let token_equal a b =
  match (a, b) with
  | Ident x, Ident y | String_lit x, String_lit y -> String.equal x y
  | Int_lit x, Int_lit y -> x = y
  | Float_lit x, Float_lit y -> Float.equal x y
  | Lbrace, Lbrace | Rbrace, Rbrace | Equals, Equals | Eof, Eof -> true
  | (Ident _ | Int_lit _ | Float_lit _ | String_lit _ | Lbrace | Rbrace
    | Equals | Eof), _ ->
      false

let expect lx expected =
  let token, pos = next lx in
  if not (token_equal token expected) then
    fail pos "expected %s, found %s" (token_to_string expected)
      (token_to_string token)

let parse_value lx =
  match next lx with
  | Int_lit i, _ -> Npd_ast.Int i
  | Float_lit f, _ -> Npd_ast.Float f
  | String_lit s, _ -> Npd_ast.String s
  | Ident "true", _ -> Npd_ast.Bool true
  | Ident "false", _ -> Npd_ast.Bool false
  | token, pos -> fail pos "expected a value, found %s" (token_to_string token)

(* After a section name: zero or more [key=value] arguments, then the
   brace-delimited body. *)
let rec parse_section lx name =
  let rec args acc =
    match peek lx with
    | Ident key, _ ->
        ignore (next lx);
        expect lx Equals;
        let v = parse_value lx in
        args ((key, v) :: acc)
    | Lbrace, _ ->
        ignore (next lx);
        List.rev acc
    | token, pos ->
        fail pos "expected argument or '{', found %s" (token_to_string token)
  in
  let args = args [] in
  let rec entries acc =
    match next lx with
    | Rbrace, _ -> List.rev acc
    | Ident key, _ -> (
        match peek lx with
        | Equals, _ ->
            ignore (next lx);
            let v = parse_value lx in
            entries (Npd_ast.Field (key, v) :: acc)
        | (Ident _ | Lbrace), _ ->
            entries (Npd_ast.Section (parse_section lx key) :: acc)
        | token, pos ->
            fail pos "expected '=', argument or '{' after %S, found %s" key
              (token_to_string token))
    | token, pos ->
        fail pos "expected entry or '}', found %s" (token_to_string token)
  in
  { Npd_ast.name; args; entries = entries [] }

let parse src =
  let lx = create src in
  (match next lx with
  | Ident "npd", _ -> ()
  | token, pos ->
      fail pos "NPD documents start with 'npd', found %s" (token_to_string token));
  let doc_name =
    match next lx with
    | String_lit s, _ -> s
    | token, pos -> fail pos "expected document name, found %s" (token_to_string token)
  in
  expect lx Lbrace;
  let rec sections acc =
    match next lx with
    | Rbrace, _ -> List.rev acc
    | Ident name, _ -> sections (parse_section lx name :: acc)
    | token, pos ->
        fail pos "expected section or '}', found %s" (token_to_string token)
  in
  let sections = sections [] in
  (match next lx with
  | Eof, _ -> ()
  | token, pos -> fail pos "trailing input: %s" (token_to_string token));
  { Npd_ast.doc_name; sections }

let render_error msg (pos : position) =
  Printf.sprintf "line %d, column %d: %s" pos.line pos.column msg

let parse_result src =
  match parse src with
  | doc -> Ok doc
  | exception Parse_error (msg, pos) -> Error (render_error msg pos)
  | exception Lex_error (msg, pos) -> Error (render_error msg pos)

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | src -> parse_result src
  | exception Sys_error e -> Error e
