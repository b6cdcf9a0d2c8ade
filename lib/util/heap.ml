(* Binary min-heap backed by a growable array.  Index 0 is the root; the
   children of index [i] are [2*i + 1] and [2*i + 2].

   Slots are ['a option] with [None] marking emptiness, so the structure
   never retains references through dead capacity: popped elements (and
   everything they reach — e.g. an A* entry's whole rev_types chain) are
   collectable the moment they are returned.  The alternative — seeding
   dead slots with some live element — pins arbitrary popped values
   until a later push happens to overwrite their slot. *)

type 'a t = {
  compare : 'a -> 'a -> int;
  mutable data : 'a option array;
  mutable size : int;
}

let create ~compare = { compare; data = [||]; size = 0 }

let length h = h.size

let is_empty h = h.size = 0

let get h i = match h.data.(i) with Some x -> x | None -> assert false

let grow h =
  let capacity = Array.length h.data in
  let capacity' = if capacity = 0 then 16 else capacity * 2 in
  let data' = Array.make capacity' None in
  Array.blit h.data 0 data' 0 h.size;
  h.data <- data'

let swap h i j =
  let tmp = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- tmp

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.compare (get h i) (get h parent) < 0 then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 in
  let right = left + 1 in
  let smallest =
    if left < h.size && h.compare (get h left) (get h i) < 0 then left
    else i
  in
  let smallest =
    if right < h.size && h.compare (get h right) (get h smallest) < 0 then
      right
    else smallest
  in
  if smallest <> i then begin
    swap h i smallest;
    sift_down h smallest
  end

let push h x =
  if h.size = Array.length h.data then grow h;
  h.data.(h.size) <- Some x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let pop h =
  if h.size = 0 then None
  else begin
    let root = h.data.(0) in
    h.size <- h.size - 1;
    h.data.(0) <- h.data.(h.size);
    (* Clear the vacated slot: anything left there would pin the moved
       (and transitively the popped) element past its lifetime. *)
    h.data.(h.size) <- None;
    if h.size > 0 then sift_down h 0;
    root
  end

let pop_exn h =
  match pop h with
  | Some x -> x
  | None -> invalid_arg "Heap.pop_exn: empty heap"

let clear h =
  h.data <- [||];
  h.size <- 0

let of_list ~compare xs =
  let h = create ~compare in
  List.iter (push h) xs;
  h

let to_sorted_list h =
  let rec drain acc =
    match pop h with
    | None -> List.rev acc
    | Some x -> drain (x :: acc)
  in
  drain []

let fold_unordered f init h =
  let acc = ref init in
  for i = 0 to h.size - 1 do
    acc := f !acc (get h i)
  done;
  !acc
