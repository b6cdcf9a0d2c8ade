(* A single analyzer finding, rendered compiler-style as
   [file:line:col [rule] message] so editors and CI logs can jump to it. *)

type t = {
  file : string;
  line : int;
  col : int;
  rule : string;
      (* "R1".."R6", "S2".."S5", or "lint"/"sentinel" for malformed
         directives and annotations, unreadable cmts *)
  message : string;
}

let v ~file ~line ~col ~rule message = { file; line; col; rule; message }

let make ~file ~loc ~rule message =
  let p = loc.Location.loc_start in
  {
    file;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    rule;
    message;
  }

let to_string f =
  Printf.sprintf "%s:%d:%d [%s] %s" f.file f.line f.col f.rule f.message

(* Stable report order: file, then position, then rule id. *)
let order a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.message b.message
