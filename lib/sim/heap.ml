(* A 4-ary min-heap whose order lives in flat int arrays. Heap position [i]
   holds the key [(time.(i), seq.(i))] and [slot.(i)], the index of its
   payload in [payload]. A payload is written once at push and read once at
   pop; sifts move only ints, so they compare unboxed keys, chase no
   pointers and pay no write barrier. Sifts move a hole rather than
   swapping, one write per array per level. Nothing allocates once the
   arrays have grown to the queue's high-water mark. *)

type 'a t = {
  mutable time : int array;
  mutable seq : int array;
  mutable slot : int array;
  mutable payload : 'a array; (* by slot; [dummy] in every free slot *)
  mutable free : int array; (* stack of free slots, first [nfree] live *)
  mutable nfree : int;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy =
  {
    time = [||];
    seq = [||];
    slot = [||];
    payload = [||];
    free = [||];
    nfree = 0;
    len = 0;
    dummy;
  }

let length t = t.len

let is_empty t = t.len = 0

(* Called when full, so every slot is taken and the new ones are free. *)
let grow t =
  let cap = Array.length t.time in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.time <- extend t.time 0;
  t.seq <- extend t.seq 0;
  t.slot <- extend t.slot 0;
  t.payload <- extend t.payload t.dummy;
  t.free <- Array.make ncap 0;
  for k = 0 to ncap - cap - 1 do
    t.free.(k) <- ncap - 1 - k
  done;
  t.nfree <- ncap - cap

(* Does entry [a] sort before entry [b]? *)
let[@inline] lt (times : int array) (seqs : int array) a b =
  let ta = Array.unsafe_get times a and tb = Array.unsafe_get times b in
  ta < tb || (ta = tb && Array.unsafe_get seqs a < Array.unsafe_get seqs b)

let[@inline] move (times : int array) (seqs : int array) (slots : int array)
    ~src ~dst =
  Array.unsafe_set times dst (Array.unsafe_get times src);
  Array.unsafe_set seqs dst (Array.unsafe_get seqs src);
  Array.unsafe_set slots dst (Array.unsafe_get slots src)

(* Move the hole at [i] towards the root past every parent that sorts
   after [(time, seq)]; returns the hole's final index. *)
let rec sift_up times seqs slots i (time : int) (seq : int) =
  if i = 0 then 0
  else
    let p = (i - 1) lsr 2 in
    let pt = Array.unsafe_get times p in
    if pt < time || (pt = time && Array.unsafe_get seqs p < seq) then i
    else begin
      move times seqs slots ~src:p ~dst:i;
      sift_up times seqs slots p time seq
    end

(* The smallest child of a node whose first child is [c < len]. *)
let[@inline] min_child times seqs c len =
  if c + 3 < len then
    let a = if lt times seqs (c + 1) c then c + 1 else c in
    let b = if lt times seqs (c + 3) (c + 2) then c + 3 else c + 2 in
    if lt times seqs b a then b else a
  else
    let m = if c + 1 < len && lt times seqs (c + 1) c then c + 1 else c in
    if c + 2 < len && lt times seqs (c + 2) m then c + 2 else m

(* Move the hole at [i] towards the leaves past every child that sorts
   before [(time, seq)]; returns the hole's final index. *)
let rec sift_down times seqs slots len i (time : int) (seq : int) =
  let c = (4 * i) + 1 in
  if c >= len then i
  else
    let m = min_child times seqs c len in
    let mt = Array.unsafe_get times m in
    if mt < time || (mt = time && Array.unsafe_get seqs m < seq) then begin
      move times seqs slots ~src:m ~dst:i;
      sift_down times seqs slots len m time seq
    end
    else i

let push t ~time ~seq payload =
  if t.len = Array.length t.time then grow t;
  let s = t.free.(t.nfree - 1) in
  t.nfree <- t.nfree - 1;
  t.payload.(s) <- payload;
  let i = sift_up t.time t.seq t.slot t.len time seq in
  t.time.(i) <- time;
  t.seq.(i) <- seq;
  t.slot.(i) <- s;
  t.len <- t.len + 1
[@@alloc_free]

(* Unlink the root (the last entry fills the hole the sift leaves) and
   return its payload, clearing the slot and freeing it. *)
let remove_min t =
  let s = t.slot.(0) in
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then begin
    let i = sift_down t.time t.seq t.slot last 0 t.time.(last) t.seq.(last) in
    move t.time t.seq t.slot ~src:last ~dst:i
  end;
  let p = t.payload.(s) in
  t.payload.(s) <- t.dummy;
  t.free.(t.nfree) <- s;
  t.nfree <- t.nfree + 1;
  p
[@@alloc_free]

let pop_min t =
  if t.len = 0 then None
  else begin
    let time = t.time.(0) and seq = t.seq.(0) in
    let payload = remove_min t in
    Some (time, seq, payload)
  end

let pop_into t f =
  if t.len = 0 then false
  else begin
    let time = t.time.(0) in
    let payload = remove_min t in
    f time payload;
    true
  end
[@@alloc_free]

let min_time t =
  if t.len = 0 then invalid_arg "Heap.min_time: empty heap";
  t.time.(0)
