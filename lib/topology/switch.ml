type role = RSW | FSW | SSW | FADU | FAUU | MA | EB | DR | EBB

let all_roles = [ RSW; FSW; SSW; FADU; FAUU; MA; EB; DR; EBB ]

let role_to_string = function
  | RSW -> "RSW"
  | FSW -> "FSW"
  | SSW -> "SSW"
  | FADU -> "FADU"
  | FAUU -> "FAUU"
  | MA -> "MA"
  | EB -> "EB"
  | DR -> "DR"
  | EBB -> "EBB"

let role_of_string s =
  match String.uppercase_ascii s with
  | "RSW" -> Some RSW
  | "FSW" -> Some FSW
  | "SSW" -> Some SSW
  | "FADU" -> Some FADU
  | "FAUU" -> Some FAUU
  | "MA" -> Some MA
  | "EB" -> Some EB
  | "DR" -> Some DR
  | "EBB" -> Some EBB
  | _ -> None

let rank = function
  | RSW -> 0
  | FSW -> 1
  | SSW -> 2
  | FADU -> 3
  | FAUU -> 4
  | MA -> 5
  | EB -> 6
  | DR -> 7
  | EBB -> 8

type t = {
  id : int;
  name : string;
  role : role;
  generation : int;
  dc : int;
  pod : int;
  plane : int;
  index : int;
  max_ports : int;
}

let make ~id ~name ~role ?(generation = 1) ?(dc = -1) ?(pod = -1) ?(plane = -1)
    ?(index = 0) ~max_ports () =
  { id; name; role; generation; dc; pod; plane; index; max_ports }

