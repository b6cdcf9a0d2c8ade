(* R5 fixture: direct console output from lib code. *)

let shout () = print_endline "done"
let report n = Printf.printf "%d rows\n" n
let warn msg = Format.eprintf "%s@." msg
let opened n = Printf.(printf "%d rows\n" n)
