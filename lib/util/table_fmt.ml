type align = Left | Right | Center

type t = { headers : string list; arity : int; mutable rows : string list list }

let create ~headers =
  { headers; arity = List.length headers; rows = [] }

let add_row t cells =
  if List.length cells <> t.arity then
    invalid_arg "Table_fmt.add_row: arity mismatch";
  t.rows <- cells :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s
    | Center ->
        let left = (width - n) / 2 in
        String.make left ' ' ^ s ^ String.make (width - n - left) ' '

let render ?(align = Left) t =
  let rows = List.rev t.rows in
  let widths = Array.of_list (List.map String.length t.headers) in
  let update cells =
    List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) cells
  in
  List.iter update rows;
  let line ch =
    let parts =
      Array.to_list (Array.map (fun w -> String.make (w + 2) ch) widths)
    in
    "+" ^ String.concat "+" parts ^ "+"
  in
  let fmt_cells align cells =
    let padded =
      List.mapi (fun i c -> " " ^ pad align widths.(i) c ^ " ") cells
    in
    "|" ^ String.concat "|" padded ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (line '-');
  Buffer.add_char buf '\n';
  Buffer.add_string buf (fmt_cells Center t.headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (line '=');
  List.iter
    (fun row ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf (fmt_cells align row))
    rows;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (line '-');
  Buffer.contents buf

let print ?align t = print_endline (render ?align t)
