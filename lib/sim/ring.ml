(* Two parallel arrays (an int and a payload per entry) used as a circular
   buffer. The capacity is a power of two so the index wraps with a mask;
   it doubles when full and never shrinks. *)

type 'a t = {
  mutable ints : int array;
  mutable items : 'a array;
  mutable head : int;
  mutable len : int;
  dummy : 'a; (* fills vacated item slots, so dropped entries are not kept *)
}

let create ~dummy = { ints = [||]; items = [||]; head = 0; len = 0; dummy }

let length q = q.len

let is_empty q = q.len = 0

(* Double the capacity and unwrap the live entries to the front. *)
let grow q =
  let cap = Array.length q.items in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let ints = Array.make ncap 0 and items = Array.make ncap q.dummy in
  for k = 0 to q.len - 1 do
    let j = (q.head + k) land (cap - 1) in
    ints.(k) <- q.ints.(j);
    items.(k) <- q.items.(j)
  done;
  q.ints <- ints;
  q.items <- items;
  q.head <- 0

let[@inline] push q n x =
  if q.len = Array.length q.items then grow q;
  let i = (q.head + q.len) land (Array.length q.items - 1) in
  q.ints.(i) <- n;
  q.items.(i) <- x;
  q.len <- q.len + 1
[@@alloc_free]

let[@inline] peek_int q =
  if q.len = 0 then invalid_arg "Ring.peek_int: empty ring";
  Array.unsafe_get q.ints q.head

let[@inline] peek q =
  if q.len = 0 then invalid_arg "Ring.peek: empty ring";
  Array.unsafe_get q.items q.head

let[@inline] drop q =
  if q.len = 0 then invalid_arg "Ring.drop: empty ring";
  q.items.(q.head) <- q.dummy;
  q.head <- (q.head + 1) land (Array.length q.items - 1);
  q.len <- q.len - 1
[@@alloc_free]
