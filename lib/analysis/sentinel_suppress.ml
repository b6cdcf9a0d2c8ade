(* Comment-directive suppressions.

   A finding can be silenced with a comment on the offending line or on
   the line directly above it — the marker split here so this very
   comment is not itself a (stale, S4-reportable) directive; written
   without the space in real use:

     (* klotski-lint : allow R3 "keys are sorted two lines below" *)

   Several rules may be listed ([allow R1 R3 "..."]).  The reason string
   is mandatory: a directive without one suppresses nothing and is
   itself reported as a [lint] finding, so every exception in the tree
   carries its justification next to the code it excuses. *)

type directive = { line : int; col : int; rules : string list }

type t = { directives : directive list; problems : Sentinel_finding.t list }

(* Built by concatenation so the scanner never mistakes its own
   definition for a directive. *)
let marker = "klotski-lint" ^ ":"

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.equal (String.sub s i m) sub then Some i
    else go (i + 1)
  in
  go 0

(* The rule ids of klotski-sentinel's catalog (R-rules per site,
   S-rules over the call graph); its S4 audits directives that silence
   nothing. *)
let known_rules =
  [ "R1"; "R2"; "R3"; "R4"; "R5"; "R6"; "S2"; "S3"; "S4"; "S5" ]

let drop s k = String.trim (String.sub s k (String.length s - k))

(* The directive lives in a comment; the comment terminator and
   anything after it are not part of the rule list. *)
let cut_comment_close s =
  match find_sub s ("*" ^ ")") with
  | Some i -> String.trim (String.sub s 0 i)
  | None -> s

(* Parse the directive text after the marker.  Text that does not start
   with [allow] is prose mentioning the tool (not a directive) and is
   ignored; an [allow] without a valid rule list and reason string is a
   finding. *)
let parse_directive rest =
  if not (String.length rest >= 5 && String.equal (String.sub rest 0 5) "allow")
  then Ok None
  else begin
    let rest = drop rest 5 in
    let rules_part, reason =
      match String.index_opt rest '"' with
      | None -> (rest, None)
      | Some q -> (
          let upto = String.trim (String.sub rest 0 q) in
          match String.index_from_opt rest (q + 1) '"' with
          | None -> (upto, None)
          | Some q' ->
              let r = String.trim (String.sub rest (q + 1) (q' - q - 1)) in
              (upto, if String.equal r "" then None else Some r))
    in
    let tokens =
      String.map (fun c -> if Char.equal c ',' then ' ' else c)
        (cut_comment_close rules_part)
      |> String.split_on_char ' '
      |> List.filter (fun s -> not (String.equal s ""))
    in
    let unknown =
      List.filter
        (fun tok -> not (List.exists (String.equal tok) known_rules))
        tokens
    in
    match (tokens, unknown, reason) with
    | [], _, _ -> Error "suppression lists no rule ids (expected R1..R6 / S2..S5)"
    | _, u :: _, _ -> Error (Printf.sprintf "unknown rule id %S in suppression" u)
    | _, [], None ->
        Error "suppression missing reason string (allow R<n> \"why this is safe\")"
    | _, [], Some _ -> Ok (Some tokens)
  end

let scan ~file text =
  let directives = ref [] and problems = ref [] in
  List.iteri
    (fun idx line ->
      let lno = idx + 1 in
      match find_sub line marker with
      | None -> ()
      | Some i -> (
          let rest = drop line (i + String.length marker) in
          match parse_directive rest with
          | Ok None -> ()
          | Ok (Some rules) ->
              directives := { line = lno; col = i; rules } :: !directives
          | Error msg ->
              problems :=
                Sentinel_finding.v ~file ~line:lno ~col:i ~rule:"lint" msg
                :: !problems))
    (String.split_on_char '\n' text);
  { directives = !directives; problems = !problems }

(* A directive covers its own line and the next one, so it can trail the
   offending expression or sit on its own line above it. *)
let covers d (f : Sentinel_finding.t) =
  (d.line = f.line || d.line + 1 = f.line)
  && List.exists (String.equal f.rule) d.rules
