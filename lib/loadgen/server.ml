type t = {
  tr : Net.Transport.t;
  ep : Net.Endpoint.t;
  cpu : Memmodel.Cpu.t;
  engine : Sim.Engine.t;
  queue : Mem.Pinned.Buf.t Sim.Ring.t; (* (src, buf) per waiting request *)
  queue_limit : int;
  mutable busy : bool;
  mutable handler : src:int -> Mem.Pinned.Buf.t -> unit;
  mutable served : int;
  mutable dropped : int;
  mutable service_ns_total : int;
  mutable busy_ns : int;
  (* Fault injection: extra ns to stall each request (slow consumer). *)
  mutable service_fault : (now:int -> int) option;
  mutable stalled_ns : int;
  (* The one event the loop schedules, over and over: serve the next
     request when the current one's service time has elapsed. *)
  next : unit -> unit;
}

let service t =
  if Sim.Ring.is_empty t.queue then t.busy <- false
  else begin
    let src = Sim.Ring.peek_int t.queue and buf = Sim.Ring.peek t.queue in
    Sim.Ring.drop t.queue;
    t.busy <- true;
    let c0 = Memmodel.Cpu.cycles t.cpu in
    Net.Endpoint.charge_rx ~cpu:t.cpu t.ep ~len:(Mem.Pinned.Buf.len buf);
    Net.Endpoint.begin_hold t.ep;
    (try t.handler ~src buf
     with e ->
       Net.Endpoint.release_hold t.ep ~after:0;
       raise e);
    Mem.Arena.reset (Net.Endpoint.arena t.ep);
    let cycles = Memmodel.Cpu.cycles t.cpu -. c0 in
    let dt =
      int_of_float
        (ceil (Memmodel.Params.cycles_to_ns (Memmodel.Cpu.params t.cpu) cycles))
    in
    (* A slow-consumer fault stretches the whole slot: the response is
       held back and the next request starts later, so rx buffers and
       response references stay pinned for the stall too. *)
    let dt =
      match t.service_fault with
      | None -> dt
      | Some f ->
          let stall = f ~now:(Sim.Engine.now t.engine) in
          t.stalled_ns <- t.stalled_ns + stall;
          dt + stall
    in
    Net.Endpoint.release_hold t.ep ~after:dt;
    t.served <- t.served + 1;
    t.service_ns_total <- t.service_ns_total + dt;
    t.busy_ns <- t.busy_ns + dt;
    Sim.Engine.schedule t.engine ~after:dt t.next
  end

let on_rx t ~src buf =
  if Sim.Ring.length t.queue >= t.queue_limit then begin
    t.dropped <- t.dropped + 1;
    Mem.Pinned.Buf.decr_ref ~site:"Server.queue_drop" buf
  end
  else begin
    Sim.Ring.push t.queue src buf;
    if not t.busy then service t
  end
[@@alloc_free]

let no_handler ~src:_ buf =
  Mem.Pinned.Buf.decr_ref ~site:"Server.no_handler" buf

let create ?(queue_limit = 4096) tr cpu =
  let ep = Net.Transport.endpoint tr in
  let engine = Net.Endpoint.engine ep in
  let queue = Sim.Ring.create ~dummy:Mem.Pinned.Buf.none in
  let rec t =
    {
      tr;
      ep;
      cpu;
      engine;
      queue;
      queue_limit;
      busy = false;
      handler = no_handler;
      served = 0;
      dropped = 0;
      service_ns_total = 0;
      busy_ns = 0;
      service_fault = None;
      stalled_ns = 0;
      next = (fun () -> service t);
    }
  in
  Net.Transport.set_rx tr (fun ~src buf -> on_rx t ~src buf);
  t

let set_handler t f = t.handler <- f

let set_service_fault t f = t.service_fault <- f

let stalled_ns t = t.stalled_ns

let served t = t.served

let dropped t = t.dropped

let mean_service_ns t =
  if t.served = 0 then 0.0
  else float_of_int t.service_ns_total /. float_of_int t.served

let busy_ns t = t.busy_ns

let cpu t = t.cpu

let endpoint t = t.ep

let transport t = t.tr
