type t = { words : Bytes.t; n : int }

(* We pack 8 bits per byte in GC-friendly [Bytes].  Every access is
   bounds-checked except in [sweep_rows], which proves its indices once
   per call (see there). *)

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Bytes.make ((n + 7) / 8) '\000'; n }


(* Every range check raises this one preallocated exception. *)
let out_of_range = Invalid_argument "Bitset: index out of range"

let[@inline] check t i = if i < 0 || i >= t.n then raise out_of_range

let[@inline] bit words i =
  Char.code (Bytes.get words (i lsr 3)) land (1 lsl (i land 7)) <> 0

let[@inline] set_bit words i =
  let b = Char.code (Bytes.get words (i lsr 3)) in
  Bytes.set words (i lsr 3) (Char.chr (b lor (1 lsl (i land 7))))

(* [bit] and [set_bit] without the range check, for [sweep_rows]. *)
let[@inline] bit_unchecked words i =
  Char.code (Col.get_byte words (i lsr 3)) land (1 lsl (i land 7)) <> 0

let[@inline] set_bit_unchecked words i =
  let b = Char.code (Col.get_byte words (i lsr 3)) in
  Col.set_byte words (i lsr 3) (Char.chr (b lor (1 lsl (i land 7))))

let[@inline] mem t i =
  check t i;
  bit t.words i

let[@inline] add t i =
  check t i;
  set_bit t.words i

let remove t i =
  check t i;
  let b = Char.code (Bytes.get t.words (i lsr 3)) in
  Bytes.set t.words (i lsr 3) (Char.chr (b land lnot (1 lsl (i land 7)) land 0xff))

let set t i v = if v then add t i else remove t i

(* The backward sweep's row kernel: one call per stage keeps the per-row
   loop inside this module, where each probe compiles to a few loads; a
   per-row [mem] from another module is an out-of-line call, since
   dune's dev profile compiles with [-opaque].  A row holds only its
   circuit, and its endpoints are read through it, from the universe's
   endpoint columns.  Only rows that stand for the as-built wiring can
   be live here.  A stage with no alternative rows, while nothing is
   rewired (every stage of a drain/undrain task), takes a loop without
   the two masks: testing them per row made a full evaluation of every
   D class 1.5–6.5% slower (EXPERIMENTS.md, "Rows carry only their
   circuit").
   The row loops run unchecked: each column's entries lie below its
   bound (proved when the column was built), and the bounds and lengths
   are compared with the sets' capacities, with each other and with
   [live] once here; a set of capacity [n] holds [(n + 7) / 8] bytes. *)
let sweep_rows ~usable ~rewired ~useful ~into ~(circuits : Col.t) ~alt_hi
    ~(nexts : Col.t) ~(prevs : Col.t) live =
  let rows = Array.length circuits.ids in
  (* Without a rewired set, [usable] stands in for it, never read. *)
  let rw, any_rewired =
    match rewired with Some r -> (r, true) | None -> (usable, false)
  in
  if
    circuits.bound > usable.n || circuits.bound > rw.n
    || nexts.bound > useful.n || prevs.bound > into.n
  then invalid_arg "Bitset.sweep_rows: a column's bound exceeds its set";
  if
    Array.length nexts.ids < circuits.bound
    || Array.length prevs.ids < circuits.bound
  then
    invalid_arg
      "Bitset.sweep_rows: an endpoint column is shorter than the circuits' bound";
  let alts = Array.length alt_hi > 0 in
  if alts && Array.length alt_hi <> rows then
    invalid_arg "Bitset.sweep_rows: [alt_hi] is neither empty nor one entry per row";
  if Bytes.length live < rows then
    invalid_arg "Bitset.sweep_rows: [live] is shorter than the rows";
  let uw = usable.words and fw = useful.words and iw = into.words in
  let cs = circuits.ids and ns = nexts.ids and ps = prevs.ids in
  if not (alts || any_rewired) then
    for i = 0 to rows - 1 do
      let j = Col.get cs i in
      if bit_unchecked uw j && bit_unchecked fw (Col.get ns j) then begin
        Col.set_byte live i '\001';
        set_bit_unchecked iw (Col.get ps j)
      end
      else Col.set_byte live i '\000'
    done
  else begin
    let rww = rw.words in
    for i = 0 to rows - 1 do
      let j = Col.get cs i in
      if
        (not (alts && Col.get alt_hi i >= 0))
        && (not (any_rewired && bit_unchecked rww j))
        && bit_unchecked uw j
        && bit_unchecked fw (Col.get ns j)
      then begin
        Col.set_byte live i '\001';
        set_bit_unchecked iw (Col.get ps j)
      end
      else Col.set_byte live i '\000'
    done
  end

let popcount_byte =
  (* 256-entry popcount table, built once. *)
  let table = Array.make 256 0 in
  for i = 1 to 255 do
    table.(i) <- table.(i lsr 1) + (i land 1)
  done;
  fun c -> table.(Char.code c)
[@@klotski.domain_safe
  "the table is fully built at module-load time (before any domain spawns) \
   and read-only afterwards"]

let cardinal t =
  let acc = ref 0 in
  Bytes.iter (fun c -> acc := !acc + popcount_byte c) t.words;
  !acc

let copy t = { words = Bytes.copy t.words; n = t.n }

let clear t = Bytes.fill t.words 0 (Bytes.length t.words) '\000'

(* Bits at or past [n] in the last byte stay zero: [iter], [cardinal] and
   [equal] read whole bytes and rely on that padding being clear. *)
let fill t =
  let len = Bytes.length t.words in
  if len > 0 then begin
    Bytes.fill t.words 0 len '\255';
    let tail = t.n land 7 in
    if tail <> 0 then Bytes.set t.words (len - 1) (Char.chr ((1 lsl tail) - 1))
  end

(* Zero bytes are skipped, so a sparse set costs O(n/8) byte reads plus
   its members.  Within a non-zero byte every bit is re-read, so a
   callback that mutates the set sees the same effects as a per-index
   [mem] loop would give it. *)
let iter f t =
  for byte = 0 to Bytes.length t.words - 1 do
    if Char.code (Bytes.get t.words byte) <> 0 then
      for bit = 0 to 7 do
        if Char.code (Bytes.get t.words byte) land (1 lsl bit) <> 0 then
          f ((byte lsl 3) lor bit)
      done
  done

let to_list t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc

let create_full n =
  let t = create n in
  fill t;
  t

let equal a b = a.n = b.n && Bytes.equal a.words b.words
