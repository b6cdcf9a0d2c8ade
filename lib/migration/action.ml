type op =
  | Drain
  | Undrain
  | Rewire of { circuit_sel : string; new_hi : int }

let op_to_string = function
  | Drain -> "drain"
  | Undrain -> "undrain"
  | Rewire { circuit_sel; new_hi } ->
      Printf.sprintf "rewire(%s->%d)" circuit_sel new_hi

(* Inverse of [op_to_string].  The rewire payload is recovered by
   splitting on the LAST "->" of the parenthesized body, so selectors
   containing "->" still round-trip. *)
let of_string s =
  match s with
  | "drain" -> Some Drain
  | "undrain" -> Some Undrain
  | _ ->
      let n = String.length s in
      if n >= 11 && String.sub s 0 7 = "rewire(" && s.[n - 1] = ')' then begin
        let body = String.sub s 7 (n - 8) in
        let arrow = ref (-1) in
        for i = String.length body - 2 downto 0 do
          if !arrow < 0 && body.[i] = '-' && body.[i + 1] = '>' then arrow := i
        done;
        if !arrow < 0 then None
        else
          let sel = String.sub body 0 !arrow in
          let hi = String.sub body (!arrow + 2) (String.length body - !arrow - 2) in
          match int_of_string_opt hi with
          | Some new_hi when new_hi >= 0 ->
              Some (Rewire { circuit_sel = sel; new_hi })
          | Some _ | None -> None
      end
      else None

type effect = Set_activity of bool | Set_wiring of int option

type target =
  | Switch_layer of Switch.role * int
  | Hgrid_layer of int * int
  | Circuit_group of string

type t = { op : op; target : target }

let make op target = { op; target }

(* The single exhaustive dispatch over the alphabet: everything else
   asks these five questions instead of matching on [op], so adding a
   fourth operation is a change local to this block. *)
let applies a =
  match a.op with
  | Drain -> Set_activity false
  | Undrain -> Set_activity true
  | Rewire { new_hi; _ } -> Set_wiring (Some new_hi)

let inverse a =
  match a.op with
  | Drain -> Set_activity true
  | Undrain -> Set_activity false
  | Rewire _ -> Set_wiring None

let affects_wiring a =
  match a.op with Drain | Undrain -> false | Rewire _ -> true

let initial_active a =
  match a.op with Drain | Rewire _ -> true | Undrain -> false

let funnels a = match a.op with Drain -> true | Undrain | Rewire _ -> false

let rewire_target a =
  match a.op with Drain | Undrain -> None | Rewire { new_hi; _ } -> Some new_hi

let target_to_string = function
  | Switch_layer (role, generation) ->
      Printf.sprintf "%s-g%d" (Switch.role_to_string role) generation
  | Hgrid_layer (generation, mesh) ->
      Printf.sprintf "HGRID-v%d/mesh%d" generation mesh
  | Circuit_group name -> Printf.sprintf "circuits %s" name

let to_string a =
  Printf.sprintf "%s %s" (op_to_string a.op) (target_to_string a.target)

module Set = struct
  type action = t
  type nonrec t = { actions : action array; index_of : (action, int) Hashtbl.t }

  let of_list actions =
    let seen = Hashtbl.create 8 in
    let deduped =
      List.filter
        (fun a ->
          if Hashtbl.mem seen a then false
          else begin
            Hashtbl.add seen a ();
            true
          end)
        actions
    in
    let arr = Array.of_list deduped in
    let index_of = Hashtbl.create 8 in
    Array.iteri (fun i a -> Hashtbl.replace index_of a i) arr;
    { actions = arr; index_of }

  let cardinal s = Array.length s.actions
  let get s i = s.actions.(i)

  let index s a =
    match Hashtbl.find_opt s.index_of a with
    | Some i -> i
    | None -> raise Not_found
end
