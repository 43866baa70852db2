type descriptor = {
  segments : Mem.Pinned.Buf.t list;
  on_complete : unit -> unit;
}

exception Too_many_segments of { requested : int; limit : int }

exception Ring_full

type completion_fault = now:int -> [ `Lose | `Delay of int ] option

(* Egress frame: the device's payload snapshot, pooled and recycled. The
   gather copy lands in [w_buf] (capacity rounded up so steady-state sends
   reuse one buffer instead of carving a fresh multi-KB block out of the
   major heap per packet — the allocation alone costs more than the copy).
   Ownership transfers to the [on_wire] consumer, who must call
   {!wire_release} exactly once per reference when the frame is finished
   (and {!wire_retain} before duplicating delivery). Consumers may read
   [w_buf.[0 .. w_len)] but never mutate or stash it past release. *)
type wire = {
  mutable w_buf : Bytes.t;
  mutable w_len : int;
  mutable w_refs : int;
  w_pool : wire_pool; (* the owning device's free stack *)
}

(* Recycled egress frames: a fixed-capacity array stack, first [w_top]
   slots live, so a release or an acquire moves no list cell. *)
and wire_pool = { w_free : wire array; mutable w_top : int }

(* The frame that names none: fills empty pool and descriptor slots. Its
   pool has no room, so releasing it recycles nothing. *)
let wire_none =
  {
    w_buf = Bytes.empty;
    w_len = 0;
    w_refs = 0;
    w_pool = { w_free = [||]; w_top = 0 };
  }

(* Reusable transmit descriptor: a preallocated gather array refilled in
   place per send and recycled through the device's free stack once its
   completion delivers. The steady-state post path builds no per-send
   lists — segment refs land in [d_segs], RefSan hold tokens in the
   parallel [d_holds], and [d_release] (one long-lived closure, typically
   the endpoint's decr_ref) runs per segment at completion. *)
type txd = {
  mutable d_segs : Mem.Pinned.Buf.t array; (* first [d_n] slots live *)
  mutable d_n : int;
  mutable d_holds : int option array; (* RefSan holds, parallel to d_segs *)
  mutable d_release : Mem.Pinned.Buf.t -> unit;
  mutable d_done : unit -> unit;
  mutable d_wire : wire; (* the gathered frame, from post until egress *)
}

let noop () = ()

let noop_release (_ : Mem.Pinned.Buf.t) = ()

let new_txd () =
  {
    d_segs = [||];
    d_n = 0;
    d_holds = [||];
    d_release = noop_release;
    d_done = noop;
    d_wire = wire_none;
  }

(* Fills vacated egress-channel slots; never posted. *)
let txd_none = new_txd ()

(* Receive queue: one per attached endpoint (a shared device carries one
   rxq per core, like a real multi-queue NIC under RSS). The ring is backed
   by a pinned pool — posting a receive buffer IS allocating from the pool,
   and the slot returns to the ring only when the delivered buffer's
   refcount reaches zero. Outstanding [Wire.Rc_view]s hold references, so
   [rx_outstanding] (live pool buffers) is exactly the number of deliveries
   the application still pins. *)
type rxq = {
  q_dev : t;
  q_pool : Mem.Pinned.Pool.t;
  q_cpu : Memmodel.Cpu.t option;
  mutable q_packets : int;
  mutable q_bytes : int;
  mutable q_dropped : int;
}

and t = {
  engine : Sim.Engine.t;
  model : Model.t;
  mutable rxqs : rxq list; (* newest first; aggregate stats sum these *)
  mutable on_wire : wire -> unit;
  wires : wire_pool;
  (* Every egress event rides this channel: finish times are monotone
     through [busy_until], so packets leave in post order. *)
  egress : txd Sim.Chan.t;
  mutable busy_until : int; (* when the DMA/wire pipeline frees up *)
  mutable in_flight : int;
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable doorbells : int;
  (* Descriptor free stack (grows by doubling, like the ring a driver
     preallocates): completed descriptors return here for reuse. *)
  mutable txd_free : txd array;
  mutable txd_top : int;
  (* Fault injection: a lost CQE leaves its descriptors' ring slots
     occupied and their segment references (and RefSan holds) pinned until
     [reap_lost] recovers them — exactly the hazard the paper's refcount
     discussion worries about. *)
  mutable completion_fault : completion_fault option;
  mutable lost : txd list;
  mutable lost_completions : int;
  mutable delayed_completions : int;
  mutable reaped_completions : int;
}

(* Ceiling on recycled frames: enough for every packet that can be in
   flight across fabric delays in practice, while bounding retained bytes
   if a consumer holds frames unusually long. *)
let wire_pool_cap = 64

let wire_bytes w = w.w_buf

let wire_len w = w.w_len

let wire_retain w = w.w_refs <- w.w_refs + 1

let wire_release w =
  w.w_refs <- w.w_refs - 1;
  if w.w_refs = 0 then begin
    let p = w.w_pool in
    if p.w_top < Array.length p.w_free then begin
      p.w_free.(p.w_top) <- w;
      p.w_top <- p.w_top + 1
    end
  end
[@@alloc_free]

let wire_capacity_for len =
  let c = ref 256 in
  while !c < len do c := !c * 2 done;
  !c

(* Index of the topmost pooled frame that holds [len] bytes, or -1. *)
let rec fitting p i len =
  if i < 0 || Bytes.length p.w_free.(i).w_buf >= len then i
  else fitting p (i - 1) len

let wire_acquire t len =
  let p = t.wires in
  let i = fitting p (p.w_top - 1) len in
  if i < 0 then
    {
      w_buf = Bytes.create (wire_capacity_for len);
      w_len = len;
      w_refs = 1;
      w_pool = p;
    }
  else begin
    (* Steady state: packets are near-constant size, so the top of the
       stack fits. A deeper fit trades places with the top first. *)
    let w = p.w_free.(i) in
    let top = p.w_top - 1 in
    p.w_free.(i) <- p.w_free.(top);
    p.w_free.(top) <- wire_none;
    p.w_top <- top;
    w.w_len <- len;
    w.w_refs <- 1;
    w
  end

let model t = t.model

let set_on_wire t f = t.on_wire <- f

let set_completion_fault t f = t.completion_fault <- f

(* --- Receive ring ------------------------------------------------------ *)

let attach_rx ?cpu t pool =
  let q =
    {
      q_dev = t;
      q_pool = pool;
      q_cpu = cpu;
      q_packets = 0;
      q_bytes = 0;
      q_dropped = 0;
    }
  in
  t.rxqs <- q :: t.rxqs;
  q

(* DMA one arriving frame's payload into a posted receive buffer. Real
   bytes move but no CPU cycles are charged: the NIC does the write, the
   host only sees the DDIO-installed lines. The returned buffer carries the
   delivery reference (refcount 1) — whoever consumes the delivery releases
   it, and the ring slot recycles at refcount zero. [Buf.none] is an RX
   ring overrun: the ring has no free buffer posted (every slot is pinned
   by an outstanding delivery or view), so the frame drops, exactly as a
   real NIC drops when the host can't keep up. *)
let rx_deliver q bytes ~off ~len =
  match Mem.Pinned.Buf.alloc ~site:"Nic.rx_dma" q.q_pool ~len with
  | buf ->
      Mem.Pinned.Buf.fill_subbytes ~site:"Nic.rx_dma" buf bytes ~src_off:off
        ~len;
      (* DDIO: the DMA write leaves the frame in the LLC. *)
      (match q.q_cpu with
      | Some cpu ->
          Memmodel.Cpu.install_dma cpu ~addr:(Mem.Pinned.Buf.addr buf) ~len
      | None -> ());
      q.q_packets <- q.q_packets + 1;
      q.q_bytes <- q.q_bytes + len;
      buf
  | exception Mem.Pinned.Out_of_memory _ ->
      q.q_dropped <- q.q_dropped + 1;
      Mem.Pinned.Buf.none

let rxq_packets q = q.q_packets

let rxq_bytes q = q.q_bytes

let rxq_dropped q = q.q_dropped

(* Deliveries (and views over them) the application still pins: ring slots
   that cannot serve new frames until their refcount hits zero. *)
let rx_outstanding q = Mem.Pinned.Pool.live q.q_pool

let rx_packets t = List.fold_left (fun n q -> n + q.q_packets) 0 t.rxqs

let rx_bytes t = List.fold_left (fun n q -> n + q.q_bytes) 0 t.rxqs

let rx_dropped t = List.fold_left (fun n q -> n + q.q_dropped) 0 t.rxqs

(* --- Reusable descriptors --------------------------------------------- *)

let txd_acquire t =
  if t.txd_top > 0 then begin
    t.txd_top <- t.txd_top - 1;
    t.txd_free.(t.txd_top)
  end
  else new_txd ()

let txd_recycle t txd =
  let cap = Array.length t.txd_free in
  if t.txd_top >= cap then begin
    let arr = Array.make (max 8 (2 * cap)) txd in
    Array.blit t.txd_free 0 arr 0 t.txd_top;
    t.txd_free <- arr
  end;
  t.txd_free.(t.txd_top) <- txd;
  t.txd_top <- t.txd_top + 1

(* Buf.t has no dummy value, so the gather array is seeded with the pushed
   element; stale entries beyond [d_n] are never read. *)
let txd_push txd buf =
  let cap = Array.length txd.d_segs in
  if txd.d_n >= cap then begin
    let arr = Array.make (max 8 (2 * cap)) buf in
    Array.blit txd.d_segs 0 arr 0 txd.d_n;
    txd.d_segs <- arr;
    let holds = Array.make (Array.length arr) None in
    Array.blit txd.d_holds 0 holds 0 txd.d_n;
    txd.d_holds <- holds
  end;
  txd.d_segs.(txd.d_n) <- buf;
  txd.d_n <- txd.d_n + 1

let txd_set_release txd f = txd.d_release <- f

let txd_set_done txd f = txd.d_done <- f

let txd_len txd = txd.d_n

let txd_payload_bytes txd =
  let total = ref 0 in
  for i = 0 to txd.d_n - 1 do
    total := !total + Mem.Pinned.Buf.len txd.d_segs.(i)
  done;
  !total

let gather t txd ~len =
  let w = wire_acquire t len in
  let off = ref 0 in
  for i = 0 to txd.d_n - 1 do
    let buf = txd.d_segs.(i) in
    Mem.Pinned.Buf.blit_to buf ~dst:w.w_buf ~dst_off:!off;
    off := !off + Mem.Pinned.Buf.len buf
  done;
  w

(* Deliver one descriptor's completion: free the ring slot, release the
   write-protect holds, release the stack's segment references, run the
   callback, and return the descriptor to the free stack. *)
let finish_txd t txd =
  t.in_flight <- t.in_flight - 1;
  for i = 0 to txd.d_n - 1 do
    (match txd.d_holds.(i) with
    | None -> ()
    | some ->
        Mem.Pinned.Buf.release_hold some;
        txd.d_holds.(i) <- None);
    txd.d_release txd.d_segs.(i)
  done;
  let cb = txd.d_done in
  txd.d_n <- 0;
  txd.d_release <- noop_release;
  txd.d_done <- noop;
  txd_recycle t txd;
  cb ()

(* Decide the fate of a CQE that is due now. [`Lose] stashes the
   completions on the lost list (ring slots stay occupied); [`Delay d]
   re-schedules delivery [d] ns later. *)
let cqe_fate t =
  match t.completion_fault with
  | None -> None
  | Some f -> f ~now:(Sim.Engine.now t.engine)

let deliver_txd t txd =
  match cqe_fate t with
  | Some `Lose ->
      t.lost_completions <- t.lost_completions + 1;
      t.lost <- txd :: t.lost
  | Some (`Delay extra) ->
      t.delayed_completions <- t.delayed_completions + 1;
      Sim.Engine.schedule t.engine ~after:extra (fun () -> finish_txd t txd)
  | None -> finish_txd t txd

(* Coalesced CQE for a batch: one fate decision covers every descriptor. *)
let deliver_txd_batch t txds =
  let n = Array.length txds in
  match cqe_fate t with
  | Some `Lose ->
      t.lost_completions <- t.lost_completions + n;
      Array.iter (fun txd -> t.lost <- txd :: t.lost) txds
  | Some (`Delay extra) ->
      t.delayed_completions <- t.delayed_completions + n;
      Sim.Engine.schedule t.engine ~after:extra (fun () ->
          Array.iter (finish_txd t) txds)
  | None -> Array.iter (finish_txd t) txds

let reap_lost t =
  let lost = t.lost in
  t.lost <- [];
  let n = List.length lost in
  t.reaped_completions <- t.reaped_completions + n;
  List.iter (finish_txd t) lost;
  n

let lost_completions t = t.lost_completions

let delayed_completions t = t.delayed_completions

let reaped_completions t = t.reaped_completions

(* A packet's last bit leaves the NIC. Egress happens regardless of the
   CQE's fate: losing a completion does not claw the packet back off the
   wire. An unbatched post's completion rides the same event
   ([with_cqe = 1]); a batch's comes in its own coalesced CQE event. *)
let egress t ~with_cqe txd =
  let w = txd.d_wire in
  txd.d_wire <- wire_none;
  t.tx_packets <- t.tx_packets + 1;
  t.tx_bytes <- t.tx_bytes + w.w_len;
  t.on_wire w;
  if with_cqe = 1 then deliver_txd t txd

let create engine ~model =
  let t =
    {
      engine;
      model;
      rxqs = [];
      on_wire = wire_release;
      wires = { w_free = Array.make wire_pool_cap wire_none; w_top = 0 };
      egress = Sim.Chan.create engine ~dummy:txd_none;
      busy_until = 0;
      in_flight = 0;
      tx_packets = 0;
      tx_bytes = 0;
      doorbells = 0;
      txd_free = [||];
      txd_top = 0;
      completion_fault = None;
      lost = [];
      lost_completions = 0;
      delayed_completions = 0;
      reaped_completions = 0;
    }
  in
  Sim.Chan.set_handler t.egress (fun with_cqe txd -> egress t ~with_cqe txd);
  t

(* --- Posting ----------------------------------------------------------- *)

let take_holds txd ~site =
  if Sanitizer.Refsan.is_enabled () then
    for i = 0 to txd.d_n - 1 do
      txd.d_holds.(i) <- Mem.Pinned.Buf.hold ~site txd.d_segs.(i)
    done

let post_txd t txd =
  let nsge = txd.d_n in
  if nsge = 0 then invalid_arg "Device.post: empty gather list";
  if nsge > t.model.Model.max_sge then
    raise (Too_many_segments { requested = nsge; limit = t.model.Model.max_sge });
  if t.in_flight >= t.model.Model.tx_ring_entries then raise Ring_full;
  t.doorbells <- t.doorbells + 1;
  t.in_flight <- t.in_flight + 1;
  let now = Sim.Engine.now t.engine in
  let start = max now t.busy_until in
  let payload_bytes = txd_payload_bytes txd in
  (* PCIe descriptor + gather fetches overlap wire serialization; the
     pipeline occupancy per packet is whichever is longer. *)
  let dma_ns =
    t.model.Model.pcie_per_descriptor_ns
    +. (float_of_int nsge *. t.model.Model.pcie_per_sge_ns)
  in
  let wire_ns = Model.wire_time_ns t.model ~bytes:payload_bytes in
  let occupancy = int_of_float (ceil (Float.max dma_ns wire_ns)) in
  let finish = start + occupancy in
  t.busy_until <- finish;
  (* Snapshot bytes at post time: the zero-copy contract says the app must
     not mutate in place during sends, and refcounts keep buffers alive, so
     gathering now is equivalent to gathering at DMA time. RefSan holds
     write-protect each segment until the completion fires, turning any
     in-place mutation of posted bytes into a write-after-post diagnostic. *)
  take_holds txd ~site:"Nic.post";
  txd.d_wire <- gather t txd ~len:payload_bytes;
  Sim.Chan.push t.egress ~time:finish 1 txd

(* Batched post: one doorbell covers every descriptor. The first descriptor
   pays the full per-descriptor PCIe fetch; the rest ride the same burst and
   pay only their per-SGE fetches. Packets still leave the wire one by one
   (each gets its own egress event at its own finish time, so fabric arrival
   times match back-to-back unbatched posts), but completion delivery is
   coalesced into a single CQE event at the last packet's finish — which is
   when every segment reference is released. [txds] may be a caller-owned
   scratch array (only the first [n] slots are read, and they are
   snapshotted before returning, so the caller can refill it immediately). *)
let post_txd_batch t txds ~n =
  if n = 0 then invalid_arg "Device.post_batch: empty batch";
  if t.in_flight + n > t.model.Model.tx_ring_entries then raise Ring_full;
  t.doorbells <- t.doorbells + 1;
  let last_finish = ref 0 in
  let batch = Array.sub txds 0 n in
  Array.iteri
    (fun i txd ->
      let nsge = txd.d_n in
      if nsge = 0 then invalid_arg "Device.post_batch: empty gather list";
      if nsge > t.model.Model.max_sge then
        raise
          (Too_many_segments { requested = nsge; limit = t.model.Model.max_sge });
      t.in_flight <- t.in_flight + 1;
      let now = Sim.Engine.now t.engine in
      let start = max now t.busy_until in
      let payload_bytes = txd_payload_bytes txd in
      let dma_ns =
        (if i = 0 then t.model.Model.pcie_per_descriptor_ns else 0.0)
        +. (float_of_int nsge *. t.model.Model.pcie_per_sge_ns)
      in
      let wire_ns = Model.wire_time_ns t.model ~bytes:payload_bytes in
      let occupancy = int_of_float (ceil (Float.max dma_ns wire_ns)) in
      let finish = start + occupancy in
      t.busy_until <- finish;
      if finish > !last_finish then last_finish := finish;
      take_holds txd ~site:"Nic.post_batch";
      txd.d_wire <- gather t txd ~len:payload_bytes;
      Sim.Chan.push t.egress ~time:finish 0 txd)
    batch;
  (* One coalesced CQE: a completion fault hits the whole batch at once. *)
  Sim.Engine.schedule_at t.engine ~time:!last_finish (fun () ->
      deliver_txd_batch t batch)

(* --- List-descriptor compatibility API --------------------------------- *)

let txd_of_descriptor t desc =
  let txd = txd_acquire t in
  List.iter (txd_push txd) desc.segments;
  (* The callback owns reference release on this path (the reusable-txd
     path instead sets [d_release] and leaves [d_done] a no-op). *)
  txd.d_done <- desc.on_complete;
  txd

let post t desc = post_txd t (txd_of_descriptor t desc)

let post_batch t descs =
  if descs = [] then invalid_arg "Device.post_batch: empty batch";
  let batch = Array.of_list (List.map (txd_of_descriptor t) descs) in
  post_txd_batch t batch ~n:(Array.length batch)

let in_flight t = t.in_flight

let tx_packets t = t.tx_packets

let tx_bytes t = t.tx_bytes

let doorbells t = t.doorbells
