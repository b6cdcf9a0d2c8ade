let rec render_section buf indent (s : Npd_ast.section) =
  let pad = String.make indent ' ' in
  Buffer.add_string buf pad;
  Buffer.add_string buf s.name;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_char buf '=';
      Buffer.add_string buf (Npd_ast.value_to_string v))
    s.args;
  Buffer.add_string buf " {\n";
  List.iter
    (function
      | Npd_ast.Field (k, v) ->
          Buffer.add_string buf pad;
          Buffer.add_string buf "  ";
          Buffer.add_string buf k;
          Buffer.add_string buf " = ";
          Buffer.add_string buf (Npd_ast.value_to_string v);
          Buffer.add_char buf '\n'
      | Npd_ast.Section sub -> render_section buf (indent + 2) sub)
    s.entries;
  Buffer.add_string buf pad;
  Buffer.add_string buf "}\n"

let to_string (doc : Npd_ast.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "npd %S {\n" doc.doc_name);
  List.iter (render_section buf 2) doc.sections;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_file path doc =
  match Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (to_string doc))
  with
  | () -> Ok ()
  | exception Sys_error e -> Error e
