(** Hand-written lexer for the NPD text syntax.

    Tokens: identifiers (letters, digits, [_] and [-], starting with a
    letter or [_]), integers, floats,
    double-quoted strings with backslash escapes (backslash, quote, n, t), the
    booleans [true]/[false] (as identifiers resolved by the parser), and
    the punctuation [{ } =].  [#] starts a comment running to end of
    line.  Positions are tracked for error reporting. *)

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
(** Raised on malformed input (unterminated string, stray character, a
    number such as [-] or [1e] that does not parse), at the offending
    token's start. *)

type t
(** A lexer over an in-memory document. *)

val create : string -> t

val next : t -> token * position
(** Consume and return the next token ([Eof] forever at end). *)

val peek : t -> token * position
(** Look at the next token without consuming it. *)

val token_to_string : token -> string
(** For error messages. *)
