type token =
  | Ident of string
  | Int_lit of int
  | Float_lit of float
  | String_lit of string
  | Lbrace
  | Rbrace
  | Equals
  | Eof

type position = { line : int; column : int }

exception Lex_error of string * position

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of the beginning of the current line *)
  mutable lookahead : (token * position) option;
}

let create src = { src; pos = 0; line = 1; bol = 0; lookahead = None }

let position lx = { line = lx.line; column = lx.pos - lx.bol + 1 }

let error lx msg = raise (Lex_error (msg, position lx))

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '-'

let is_digit c = c >= '0' && c <= '9'

let peek_char lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None

let advance lx =
  (match peek_char lx with
  | Some '\n' ->
      lx.line <- lx.line + 1;
      lx.bol <- lx.pos + 1
  | Some _ | None -> ());
  lx.pos <- lx.pos + 1

let rec skip_trivia lx =
  match peek_char lx with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance lx;
      skip_trivia lx
  | Some '#' ->
      let rec to_eol () =
        match peek_char lx with
        | Some '\n' | None -> ()
        | Some _ ->
            advance lx;
            to_eol ()
      in
      to_eol ();
      skip_trivia lx
  | Some _ | None -> ()

let lex_string lx =
  let buf = Buffer.create 16 in
  advance lx;
  (* opening quote *)
  let rec loop () =
    match peek_char lx with
    | None -> error lx "unterminated string literal"
    | Some '"' -> advance lx
    | Some '\\' -> (
        advance lx;
        match peek_char lx with
        | Some 'n' ->
            Buffer.add_char buf '\n';
            advance lx;
            loop ()
        | Some 't' ->
            Buffer.add_char buf '\t';
            advance lx;
            loop ()
        | Some ('"' | '\\') ->
            Buffer.add_char buf lx.src.[lx.pos];
            advance lx;
            loop ()
        | Some c -> error lx (Printf.sprintf "bad escape '\\%c'" c)
        | None -> error lx "unterminated escape")
    | Some c ->
        Buffer.add_char buf c;
        advance lx;
        loop ()
  in
  loop ();
  String_lit (Buffer.contents buf)

(* A sign, digits, a fraction and an exponent, each optional: the scan
   accepts text that is no number ("-", "1e", "-."), which is refused
   at the token's start. *)
let lex_number lx =
  let start = lx.pos in
  let at = position lx in
  (match peek_char lx with Some '-' -> advance lx | Some _ | None -> ());
  let is_float = ref false in
  let rec digits () =
    match peek_char lx with
    | Some c when is_digit c ->
        advance lx;
        digits ()
    | Some _ | None -> ()
  in
  digits ();
  (match peek_char lx with
  | Some '.' ->
      is_float := true;
      advance lx;
      digits ()
  | Some _ | None -> ());
  (match peek_char lx with
  | Some ('e' | 'E') ->
      is_float := true;
      advance lx;
      (match peek_char lx with
      | Some ('+' | '-') -> advance lx
      | Some _ | None -> ());
      digits ()
  | Some _ | None -> ());
  let text = String.sub lx.src start (lx.pos - start) in
  match (if !is_float then None else int_of_string_opt text) with
  | Some i -> Int_lit i
  | None -> (
      match float_of_string_opt text with
      | Some f -> Float_lit f
      | None -> raise (Lex_error (Printf.sprintf "malformed number %S" text, at)))

let lex_token lx =
  skip_trivia lx;
  let pos = position lx in
  let token =
    match peek_char lx with
    | None -> Eof
    | Some '{' ->
        advance lx;
        Lbrace
    | Some '}' ->
        advance lx;
        Rbrace
    | Some '=' ->
        advance lx;
        Equals
    | Some '"' -> lex_string lx
    | Some c when is_digit c || c = '-' -> lex_number lx
    | Some c when is_ident_start c ->
        let start = lx.pos in
        let rec loop () =
          match peek_char lx with
          | Some c when is_ident_char c ->
              advance lx;
              loop ()
          | Some _ | None -> ()
        in
        loop ();
        Ident (String.sub lx.src start (lx.pos - start))
    | Some c -> error lx (Printf.sprintf "unexpected character %C" c)
  in
  (token, pos)

let next lx =
  match lx.lookahead with
  | Some t ->
      lx.lookahead <- None;
      t
  | None -> lex_token lx

let peek lx =
  match lx.lookahead with
  | Some t -> t
  | None ->
      let t = lex_token lx in
      lx.lookahead <- Some t;
      t

let token_to_string = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Int_lit i -> Printf.sprintf "integer %d" i
  | Float_lit f -> Printf.sprintf "float %g" f
  | String_lit s -> Printf.sprintf "string %S" s
  | Lbrace -> "'{'"
  | Rbrace -> "'}'"
  | Equals -> "'='"
  | Eof -> "end of input"
