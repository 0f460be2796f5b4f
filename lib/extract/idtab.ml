(* slot [i] holds a key at [2i] (-1 when empty) and its id at [2i + 1],
   so a probe reads one cache line *)
type t = { mutable slots : int array; mutable mask : int; mutable count : int }

let create n =
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  { slots = Array.make (2 * !cap) (-1); mask = !cap - 1; count = 0 }

(* the slot holding [k], or the empty slot where it goes *)
let rec slot t k i =
  let x = Array.unsafe_get t.slots (2 * i) in
  if x = k || x < 0 then i else slot t k ((i + 1) land t.mask)

let find t k =
  let i = slot t k (k land t.mask) in
  if t.slots.(2 * i) = k then t.slots.((2 * i) + 1) else -1

let grow t =
  let slots = t.slots in
  let cap = 2 * (t.mask + 1) in
  t.slots <- Array.make (2 * cap) (-1);
  t.mask <- cap - 1;
  for i = 0 to (Array.length slots / 2) - 1 do
    let k = slots.(2 * i) in
    if k >= 0 then begin
      let j = slot t k (k land t.mask) in
      t.slots.(2 * j) <- k;
      t.slots.((2 * j) + 1) <- slots.((2 * i) + 1)
    end
  done

let id t k =
  if k < 0 then invalid_arg "Idtab.id: negative key";
  let i = slot t k (k land t.mask) in
  if t.slots.(2 * i) = k then t.slots.((2 * i) + 1)
  else begin
    let id = t.count in
    t.slots.(2 * i) <- k;
    t.slots.((2 * i) + 1) <- id;
    t.count <- id + 1;
    if 2 * t.count > t.mask + 1 then grow t;
    id
  end

let count t = t.count

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) (-1);
  t.count <- 0
