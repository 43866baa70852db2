exception Malformed of string

(* A reusable serialization plan: region sizes plus a growable array of
   zero-copy gather entries (first [zc_count] slots live). [measure_into]
   refills an existing plan in place, so the steady-state send path reuses
   one plan (and its array) per endpoint instead of building a fresh list
   per message. The write cursors live in the plan too, for the same
   reason. *)
type plan = {
  mutable header_len : int;
  mutable stream_len : int;
  mutable zc : Mem.Pinned.Buf.t array;
  mutable zc_count : int;
  mutable zc_len : int;
  mutable total_len : int;
  mutable stream_pos : int; (* write cursor: copied region *)
  mutable zc_pos : int; (* write cursor: zero-copy region *)
}

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let bitmap_words nfields = (nfields + 31) / 32

let header_block_len (msg : Wire.Dyn.t) =
  let desc = Wire.Dyn.desc msg in
  4
  + (4 * bitmap_words (Array.length desc.Schema.Desc.fields))
  + (8 * Wire.Dyn.present_count msg)

(* --- Measuring ------------------------------------------------------- *)

let create_plan () =
  {
    header_len = 0;
    stream_len = 0;
    zc = [||];
    zc_count = 0;
    zc_len = 0;
    total_len = 0;
    stream_pos = 0;
    zc_pos = 0;
  }

(* Buf.t has no dummy value, so a growing array is seeded with the pushed
   element; stale entries beyond [zc_count] are never read. *)
let push_zc plan buf =
  let cap = Array.length plan.zc in
  if plan.zc_count >= cap then begin
    let arr = Array.make (max 8 (2 * cap)) buf in
    Array.blit plan.zc 0 arr 0 plan.zc_count;
    plan.zc <- arr
  end;
  plan.zc.(plan.zc_count) <- buf;
  plan.zc_count <- plan.zc_count + 1

let rec measure_payload plan (p : Wire.Payload.t) =
  match p with
  | Wire.Payload.Zero_copy buf ->
      plan.zc_len <- plan.zc_len + Mem.Pinned.Buf.len buf;
      push_zc plan buf
  | Wire.Payload.Copied v | Wire.Payload.Literal v ->
      plan.stream_len <- plan.stream_len + v.Mem.View.len

and measure_msg plan (msg : Wire.Dyn.t) =
  (* Direct slot iteration: no per-call closure for [iter_present]. *)
  let values = Wire.Dyn.raw_values msg in
  for i = 0 to Array.length values - 1 do
    match Array.unsafe_get values i with
    | Some v -> measure_value plan v
    | None -> ()
  done

and measure_value plan (v : Wire.Dyn.value) =
  match v with
  | Wire.Dyn.Int _ | Wire.Dyn.Float _ -> ()
  | Wire.Dyn.Payload p -> measure_payload plan p
  | Wire.Dyn.Nested m ->
      plan.stream_len <- plan.stream_len + header_block_len m;
      measure_msg plan m
  | Wire.Dyn.List elems ->
      plan.stream_len <- plan.stream_len + (8 * List.length elems);
      List.iter (measure_value plan) elems

let measure_into plan msg =
  plan.stream_len <- 0;
  plan.zc_count <- 0;
  plan.zc_len <- 0;
  measure_msg plan msg;
  plan.header_len <- header_block_len msg;
  plan.total_len <- plan.header_len + plan.stream_len + plan.zc_len

let measure msg =
  let plan = create_plan () in
  measure_into plan msg;
  plan

let zc_count plan = plan.zc_count

let iter_zc plan f =
  for i = 0 to plan.zc_count - 1 do
    f plan.zc.(i)
  done

let zc_bufs plan = Array.to_list (Array.sub plan.zc 0 plan.zc_count)

(* Prepend [plan]'s zero-copy entries (in order) onto [tail] — the shape the
   stack's segment-list API wants. *)
let zc_segments plan ~head ~tail =
  let rec go i acc = if i < 0 then acc else go (i - 1) (plan.zc.(i) :: acc) in
  head :: go (plan.zc_count - 1) tail

let object_len msg = (measure msg).total_len

let num_entries plan = 1 + plan.zc_count

(* --- Writing ----------------------------------------------------------

   Every header-block and table store goes through the constant-offset
   [Cursor.Writer] fast stores: the enclosing [write_msg] (or the List arm)
   issues one [span] bounds check over the region, after which slot writes
   are straight-line unchecked stores. Charge order is byte-for-byte the
   same as the historical cursor-seeking writer, so simulated figures are
   unchanged. *)

let rec write_msg ?cpu w cur (msg : Wire.Dyn.t) ~hpos =
  let module W = Wire.Cursor.Writer in
  let desc = Wire.Dyn.desc msg in
  let nfields = Array.length desc.Schema.Desc.fields in
  let bw = bitmap_words nfields in
  let values = Wire.Dyn.raw_values msg in
  if bw <= 1 then begin
    (* Folded path (≤32 fields): the bitmap fits one native int — one pass
       builds bitmap + present count, one [span] covers the whole header
       block, and every slot store lands at a computed offset with no
       cursor seeks and no per-store bounds checks. *)
    let bitmap = ref 0 in
    let present = ref 0 in
    for i = 0 to nfields - 1 do
      match Array.unsafe_get values i with
      | Some _ ->
          bitmap := !bitmap lor (1 lsl i);
          incr present
      | None -> ()
    done;
    W.span w ~pos:hpos ~len:(4 + (4 * bw) + (8 * !present));
    W.u32_at w ~pos:hpos bw;
    if bw = 1 then W.u32_at w ~pos:(hpos + 4) !bitmap;
    let slot_base = hpos + 4 + (4 * bw) in
    let k = ref 0 in
    for i = 0 to nfields - 1 do
      match Array.unsafe_get values i with
      | Some (Wire.Dyn.Int value) ->
          W.u64_at w ~pos:(slot_base + (8 * !k)) value;
          incr k
      | Some (Wire.Dyn.Float f) ->
          W.u64_at w ~pos:(slot_base + (8 * !k)) (Int64.bits_of_float f);
          incr k
      | Some v ->
          write_value ?cpu w cur v ~slot:(slot_base + (8 * !k));
          incr k
      | None -> ()
    done
  end
  else begin
    (* Wide messages (>32 fields): multi-word bitmap via a scratch array. *)
    W.span w ~pos:hpos
      ~len:(4 + (4 * bw) + (8 * Wire.Dyn.present_count msg));
    W.u32_at w ~pos:hpos bw;
    let words = Array.make bw 0 in
    for i = 0 to nfields - 1 do
      match Array.unsafe_get values i with
      | Some _ -> words.(i / 32) <- words.(i / 32) lor (1 lsl (i mod 32))
      | None -> ()
    done;
    Array.iteri (fun j word -> W.u32_at w ~pos:(hpos + 4 + (4 * j)) word) words;
    let slot_base = hpos + 4 + (4 * bw) in
    let k = ref 0 in
    for i = 0 to nfields - 1 do
      match Array.unsafe_get values i with
      | Some v ->
          write_value ?cpu w cur v ~slot:(slot_base + (8 * !k));
          incr k
      | None -> ()
    done
  end

(* Precondition: [slot, slot+8) lies inside a region already [span]ed by the
   caller (the header block, or a repeated-field table). *)
and write_value ?cpu w cur (v : Wire.Dyn.value) ~slot =
  let module W = Wire.Cursor.Writer in
  match v with
  | Wire.Dyn.Int value -> W.u64_at w ~pos:slot value
  | Wire.Dyn.Float f -> W.u64_at w ~pos:slot (Int64.bits_of_float f)
  | Wire.Dyn.Payload p -> write_payload ?cpu w cur p ~slot
  | Wire.Dyn.Nested m ->
      let nh = header_block_len m in
      let pos = cur.stream_pos in
      cur.stream_pos <- cur.stream_pos + nh;
      W.u32_at w ~pos:slot pos;
      W.u32_at w ~pos:(slot + 4) nh;
      write_msg ?cpu w cur m ~hpos:pos
  | Wire.Dyn.List elems ->
      let count = List.length elems in
      let table = cur.stream_pos in
      cur.stream_pos <- cur.stream_pos + (8 * count);
      W.u32_at w ~pos:slot table;
      W.u32_at w ~pos:(slot + 4) count;
      W.span w ~pos:table ~len:(8 * count);
      List.iteri
        (fun j elem -> write_value ?cpu w cur elem ~slot:(table + (8 * j)))
        elems

and write_payload ?cpu w cur (p : Wire.Payload.t) ~slot =
  let module W = Wire.Cursor.Writer in
  match p with
  | Wire.Payload.Zero_copy buf ->
      let len = Mem.Pinned.Buf.len buf in
      let pos = cur.zc_pos in
      cur.zc_pos <- cur.zc_pos + len;
      W.u32_at w ~pos:slot pos;
      W.u32_at w ~pos:(slot + 4) len;
      (* Data travels as its own gather entry; nothing written here. *)
      ignore cpu
  | Wire.Payload.Copied v | Wire.Payload.Literal v ->
      let pos = cur.stream_pos in
      cur.stream_pos <- cur.stream_pos + v.Mem.View.len;
      W.seek w pos;
      W.view_bytes w v;
      W.u32_at w ~pos:slot pos;
      W.u32_at w ~pos:(slot + 4) v.Mem.View.len

let write_value_at ?cpu w plan v ~slot = write_value ?cpu w plan v ~slot

let write_msg_generic ?cpu w plan msg = write_msg ?cpu w plan msg ~hpos:0

(* [run] owns the cursor init / postcondition bookkeeping around a writer
   body, so specialized (codegen-folded) writers share the exact contract of
   the generic one. The [write] callback takes [cpu] as a plain labeled
   option so passing a top-level function here allocates nothing. *)
let run ?cpu plan w msg ~write =
  plan.stream_pos <- plan.header_len;
  plan.zc_pos <- plan.header_len + plan.stream_len;
  write ~cpu plan w msg;
  assert (plan.stream_pos = plan.header_len + plan.stream_len);
  assert (plan.zc_pos = plan.total_len)

let generic_entry ~cpu plan w msg = write_msg_generic ?cpu w plan msg

let write ?cpu plan w msg = run ?cpu plan w msg ~write:generic_entry

(* --- Deserializing ---------------------------------------------------- *)

let charge_field_read cpu =
  match cpu with
  | None -> ()
  | Some cpu ->
      Memmodel.Cpu.charge cpu Memmodel.Cpu.Deser
        (Memmodel.Cpu.params cpu).Memmodel.Params.cost_per_call

let max_depth = 32

let rec read_msg ?cpu ?(depth = 0) schema (desc : Schema.Desc.message) buf
    ~hpos =
  if depth > max_depth then malformed "nesting deeper than %d" max_depth;
  let module R = Wire.Cursor.Reader in
  let view = Mem.Pinned.Buf.view buf in
  let total = view.Mem.View.len in
  if hpos < 0 || hpos + 4 > total then malformed "header position out of range";
  let r = R.create ?cpu view in
  R.seek r hpos;
  let bw = R.u32 r in
  let nfields = Array.length desc.Schema.Desc.fields in
  if bw <> bitmap_words nfields then
    malformed "bitmap size %d does not match schema for %s" bw
      desc.Schema.Desc.msg_name;
  if hpos + 4 + (4 * bw) > total then malformed "bitmap out of range";
  let words = Array.init bw (fun _ -> R.u32 r) in
  let present i = words.(i / 32) land (1 lsl (i mod 32)) <> 0 in
  let msg = Wire.Dyn.create desc in
  let slot_base = hpos + 4 + (4 * bw) in
  let k = ref 0 in
  (* A field rejected after earlier payloads took their references must
     not strand them: release what the message holds, then re-raise. *)
  match
    Array.iteri
      (fun i (field : Schema.Desc.field) ->
        if present i then begin
          let slot = slot_base + (8 * !k) in
          incr k;
          if slot + 8 > total then malformed "info slot out of range";
          let v = read_value ?cpu ~depth schema field buf r ~slot ~total in
          Wire.Dyn.set msg field.Schema.Desc.field_name v
        end)
      desc.Schema.Desc.fields
  with
  | () -> msg
  | exception (Malformed _ as e) ->
      Wire.Dyn.release ?cpu msg;
      raise e

and read_value ?cpu ~depth schema (field : Schema.Desc.field) buf r ~slot
    ~total =
  let module R = Wire.Cursor.Reader in
  charge_field_read cpu;
  match field.Schema.Desc.label with
  | Schema.Desc.Repeated ->
      R.seek r slot;
      let table = R.u32 r in
      let count = R.u32 r in
      if count < 0 || table < 0 || table + (8 * count) > total then
        malformed "repeated field table out of range";
      Wire.Dyn.List
        (read_elements ?cpu ~depth schema field buf r ~table ~total 0 count)
  | Schema.Desc.Singular ->
      read_element ?cpu ~depth schema field buf r ~slot ~total

(* Elements [j, count) of a repeated field, read in order. When one is
   rejected, each element before it releases its reference on the way
   out. *)
and read_elements ?cpu ~depth schema field buf r ~table ~total j count =
  if j >= count then []
  else
    let v =
      read_element ?cpu ~depth schema field buf r ~slot:(table + (8 * j)) ~total
    in
    match
      read_elements ?cpu ~depth schema field buf r ~table ~total (j + 1) count
    with
    | rest -> v :: rest
    | exception (Malformed _ as e) ->
        Wire.Dyn.release_value ?cpu v;
        raise e

and read_element ?cpu ~depth schema (field : Schema.Desc.field) buf r ~slot
    ~total =
  let module R = Wire.Cursor.Reader in
  R.seek r slot;
  match field.Schema.Desc.ty with
  | Schema.Desc.Scalar Schema.Desc.Float64 ->
      Wire.Dyn.Float (Int64.float_of_bits (R.u64 r))
  | Schema.Desc.Scalar _ -> Wire.Dyn.Int (R.u64 r)
  | Schema.Desc.Str | Schema.Desc.Bytes ->
      let off = R.u32 r in
      let len = R.u32 r in
      if off < 0 || len < 0 || off + len > total then
        malformed "payload [%d, %d) out of object of %d bytes" off (off + len)
          total;
      (* Zero-copy deserialization: the field is a window into the receive
         buffer, holding its own reference. *)
      let sub = Mem.Pinned.Buf.sub buf ~off ~len in
      Mem.Pinned.Buf.incr_ref ?cpu sub;
      Wire.Dyn.Payload (Wire.Payload.Zero_copy sub)
  | Schema.Desc.Message name -> (
      let off = R.u32 r in
      let hlen = R.u32 r in
      if off < 0 || hlen < 4 || off + hlen > total then
        malformed "nested header out of range";
      match Schema.Desc.find_message schema name with
      | None -> malformed "unknown nested message %s" name
      | Some nested_desc ->
          let saved = R.pos r in
          let nested =
            read_msg ?cpu ~depth:(depth + 1) schema nested_desc buf ~hpos:off
          in
          R.seek r saved;
          Wire.Dyn.Nested nested)

let deserialize ?cpu schema desc buf = read_msg ?cpu schema desc buf ~hpos:0
