type t = {
  mutable slots : int array;  (* slot [i]: a hash at [2i] (-1 when empty), its id at [2i + 1] *)
  mutable mask : int;
  mutable names : string array;  (* id -> string *)
  mutable count : int;
  mutable last : int;  (* the id a lookup returned last *)
}

let create n =
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  {
    slots = Array.make (2 * !cap) (-1);
    mask = !cap - 1;
    names = Array.make (max 16 n) "";
    count = 0;
    last = -1;
  }

let length t = t.count
let name t id = if id < 0 || id >= t.count then invalid_arg "Nametab.name" else t.names.(id)

(* FNV-1a over the bytes, folded so the low bits that index the table see
   the whole key; non-negative, so -1 can mark an empty slot *)
let hash_sub b pos len =
  let h = ref 0x3c6ef372 in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x100000001b3
  done;
  (!h lxor (!h lsr 29)) land max_int

let equal_sub key b pos len =
  String.length key = len
  &&
  let i = ref 0 in
  while !i < len && String.unsafe_get key !i = Bytes.unsafe_get b (pos + !i) do
    incr i
  done;
  !i = len

(* the slot holding the key of hash [h], or the empty slot where it goes *)
let slot t h b pos len =
  let i = ref (h land t.mask) in
  while
    let s = t.slots.(2 * !i) in
    s >= 0 && not (s = h && equal_sub t.names.(t.slots.((2 * !i) + 1)) b pos len)
  do
    i := (!i + 1) land t.mask
  done;
  !i

let find_sub t b ~pos ~len =
  let next = t.last + 1 in
  if next < t.count && equal_sub t.names.(next) b pos len then begin
    t.last <- next;
    next
  end
  else begin
    let i = slot t (hash_sub b pos len) b pos len in
    let id = if t.slots.(2 * i) < 0 then -1 else t.slots.((2 * i) + 1) in
    if id >= 0 then t.last <- id;
    id
  end

let find t s = find_sub t (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let grow t =
  let slots = t.slots in
  let cap = 2 * (t.mask + 1) in
  t.slots <- Array.make (2 * cap) (-1);
  t.mask <- cap - 1;
  for i = 0 to (Array.length slots / 2) - 1 do
    let h = slots.(2 * i) in
    if h >= 0 then begin
      let j = ref (h land t.mask) in
      while t.slots.(2 * !j) >= 0 do
        j := (!j + 1) land t.mask
      done;
      t.slots.(2 * !j) <- h;
      t.slots.((2 * !j) + 1) <- slots.((2 * i) + 1)
    end
  done

(* number [key], of hash [h], in the empty slot [i] *)
let insert t i h key =
  let id = t.count in
  if id = Array.length t.names then begin
    let names = Array.make (2 * id) "" in
    Array.blit t.names 0 names 0 id;
    t.names <- names
  end;
  t.names.(id) <- key;
  t.slots.(2 * i) <- h;
  t.slots.((2 * i) + 1) <- id;
  t.count <- id + 1;
  if 2 * t.count > t.mask + 1 then grow t;
  id

let add_sub t b ~pos ~len =
  let h = hash_sub b pos len in
  let i = slot t h b pos len in
  if t.slots.(2 * i) >= 0 then t.slots.((2 * i) + 1)
  else insert t i h (Bytes.sub_string b pos len)

let add t s =
  let b = Bytes.unsafe_of_string s and len = String.length s in
  let h = hash_sub b 0 len in
  let i = slot t h b 0 len in
  if t.slots.(2 * i) >= 0 then t.slots.((2 * i) + 1) else insert t i h s
