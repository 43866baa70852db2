type op =
  | Get of { keys : string list }
  | Get_index of { key : string; index : int }
  | Put of { key : string; sizes : int list }

type t = {
  name : string;
  store_capacity : int;
  pool_classes : (int * int) list;
  populate : Kvstore.Store.t -> pool:Mem.Pinned.Pool.t -> unit;
  next : Sim.Rng.t -> op;
  mean_response_bytes : float;
}

let pattern =
  let b = Buffer.create 256 in
  for i = 0 to 255 do
    Buffer.add_char b (Char.chr (32 + (i mod 95)))
  done;
  Buffer.contents b

(* Write [len] bytes of the repeating pattern into [dst] at [off]. *)
let blit_pattern dst ~off ~len =
  let plen = String.length pattern in
  let rec go i =
    if i < len then begin
      let chunk = min plen (len - i) in
      Bytes.blit_string pattern 0 dst (off + i) chunk;
      go (i + chunk)
    end
  in
  go 0

let filler n =
  if n <= 0 then ""
  else begin
    let b = Bytes.create n in
    blit_pattern b ~off:0 ~len:n;
    Bytes.unsafe_to_string b
  end

(* The bytes and the single RefSan write event of
   [Buf.fill ~site buf (filler (Buf.len buf))], with no intermediate string. *)
let fill_pattern ~site buf =
  let len = Mem.Pinned.Buf.len buf in
  blit_pattern (Mem.Pinned.Buf.backing buf)
    ~off:(Mem.Pinned.Buf.backing_off buf) ~len;
  Mem.Pinned.Buf.note_write ~site buf ~off:0 ~len

let class_of n =
  let rec go c = if c >= n then c else go (c * 2) in
  go 64

let alloc_buf pool n =
  let buf = Mem.Pinned.Buf.alloc ~site:"Workload.populate" pool ~len:(max 1 n) in
  fill_pattern ~site:"Workload.populate" buf;
  buf

let alloc_value pool ~repr sizes =
  match (repr, sizes) with
  | `Single, [ n ] -> Kvstore.Store.Single (alloc_buf pool n)
  | `Single, _ -> invalid_arg "Spec.alloc_value: Single needs one size"
  | `Linked, sizes -> Kvstore.Store.Linked (List.map (alloc_buf pool) sizes)
  | `Vector, sizes ->
      Kvstore.Store.Vector (Array.of_list (List.map (alloc_buf pool) sizes))
