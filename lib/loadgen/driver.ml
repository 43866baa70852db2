type result = {
  offered_rps : float;
  achieved_rps : float;
  achieved_gbps : float;
  hist : Stats.Histogram.t;
  sent : int;
  completed : int;
  retransmits : int;
  abandoned : int;
}

let p99_ns r = if Stats.Histogram.count r.hist = 0 then 0 else Stats.Histogram.percentile r.hist 0.99

let p50_ns r = if Stats.Histogram.count r.hist = 0 then 0 else Stats.Histogram.percentile r.hist 0.50

let to_point r =
  {
    Stats.Curve.offered = r.offered_rps;
    achieved = r.achieved_rps;
    p50_ns = p50_ns r;
    p99_ns = p99_ns r;
    mean_ns = Stats.Histogram.mean r.hist;
  }

type ctx = {
  engine : Sim.Engine.t;
  hist : Stats.Histogram.t;
  warmup_abs : int;
  end_abs : int;
  mutable sent : int;
  mutable completed : int;
  mutable resp_bytes : int;
  table : int Net.Reliab.t; (* id -> send time *)
  retries0 : int; (* table counter baselines, for per-run deltas *)
  give_ups0 : int;
}

(* The send time of the call [id] answers, or -1 when no call is waiting
   on it: a duplicate response (retransmitted request, fabric-duplicated
   frame) finds no entry, so each request completes once. *)
let ack ctx id = match Net.Reliab.ack ctx.table id with t -> t | exception Not_found -> -1

(* How a client's responses find their request: by the id a parser reads
   from the payload, or, for protocols whose responses carry none (RESP),
   by a queue of ids in send order. *)
type matcher = By_id of (Mem.Pinned.Buf.t -> int) | Fifo of int Queue.t

let matcher parse_id = match parse_id with Some p -> By_id p | None -> Fifo (Queue.create ())

(* Install the response handler on a client endpoint. [on_complete] lets
   the closed-loop driver issue a follow-up request. *)
let install_rx ctx client m ~on_complete =
  Net.Transport.set_rx client (fun ~src:_ buf ->
      let now = Sim.Engine.now ctx.engine in
      let send_ns =
        match m with
        | By_id parse -> ( match parse buf with id -> ack ctx id | exception _ -> -1)
        | Fifo q -> if Queue.is_empty q then -1 else ack ctx (Queue.take q)
      in
      if send_ns >= ctx.warmup_abs && now <= ctx.end_abs then begin
        ctx.completed <- ctx.completed + 1;
        ctx.resp_bytes <- ctx.resp_bytes + Mem.Pinned.Buf.len buf;
        Stats.Histogram.record ctx.hist (now - send_ns)
      end;
      Mem.Pinned.Buf.decr_ref ~site:"Driver.response_done" buf;
      on_complete ())

(* The one issue path of all three loops: the table assigns the id, keeps
   the send time under it and sends (retrying if the table was created to). *)
let issue ctx m ~send ~give_up =
  ctx.sent <- ctx.sent + 1;
  let id = Net.Reliab.call ctx.table (Sim.Engine.now ctx.engine) ~send ~give_up in
  match m with Fifo q -> Queue.add id q | By_id _ -> ()

let make_ctx ?table engine ~duration_ns ~warmup_ns =
  let now = Sim.Engine.now engine in
  let table = match table with Some t -> t | None -> Net.Reliab.create engine in
  {
    engine;
    hist = Stats.Histogram.create ();
    warmup_abs = now + warmup_ns;
    end_abs = now + duration_ns;
    sent = 0;
    completed = 0;
    resp_bytes = 0;
    table;
    retries0 = Net.Reliab.retries table;
    give_ups0 = Net.Reliab.give_ups table;
  }

let finish ctx ~offered_rps =
  Sim.Engine.run_all ctx.engine;
  let window_s = float_of_int (ctx.end_abs - ctx.warmup_abs) /. 1e9 in
  {
    offered_rps;
    achieved_rps = float_of_int ctx.completed /. window_s;
    achieved_gbps = float_of_int (ctx.resp_bytes * 8) /. window_s /. 1e9;
    hist = ctx.hist;
    sent = ctx.sent;
    completed = ctx.completed;
    retransmits = Net.Reliab.retries ctx.table - ctx.retries0;
    abandoned = Net.Reliab.give_ups ctx.table - ctx.give_ups0;
  }

let open_loop engine ~clients ~server ~rate_rps ~duration_ns ~warmup_ns ~rng ~send ~parse_id =
  if clients = [] then invalid_arg "Driver.open_loop: no clients";
  (* Connection-oriented transports handshake now, during warmup, so
     establishment never lands in a measured latency window (no-op for
     UDP). *)
  List.iter (fun c -> Net.Transport.connect c ~peer:server) clients;
  let ctx = make_ctx engine ~duration_ns ~warmup_ns in
  let per_client_mean_ns =
    float_of_int (List.length clients) /. rate_rps *. 1e9
  in
  List.iter
    (fun client ->
      let m = matcher parse_id in
      let rng = Sim.Rng.split rng in
      let send id = send client ~dst:server ~id in
      install_rx ctx client m ~on_complete:ignore;
      let rec arrival () =
        if Sim.Engine.now engine < ctx.end_abs then begin
          issue ctx m ~send ~give_up:ignore;
          let gap = Sim.Dist.exponential rng ~mean:per_client_mean_ns in
          Sim.Engine.schedule engine ~after:(max 1 (int_of_float gap)) arrival
        end
      in
      let first = Sim.Dist.exponential rng ~mean:per_client_mean_ns in
      Sim.Engine.schedule engine ~after:(max 1 (int_of_float first)) arrival)
    clients;
  finish ctx ~offered_rps:rate_rps

(* Open loop over a packed connection table (see [Conns]): one aggregate
   Poisson arrival process at [rate_rps] picks a uniformly random
   connection per arrival — the superposition of n independent Poisson
   streams at rate/n each, without n timer chains in the heap. The chosen
   connection's private RNG stream generates the request (key choice, op
   mix), so the sequence each connection emits is a function of the seed
   alone. Connections multiplex over the (few) physical client endpoints
   round-robin.

   Responses must be id-matched: a dispatcher fanning requests across
   shards can reorder completions, so the FIFO fallback of [open_loop]
   would mis-pair latencies. *)
let open_loop_conns engine ~conns ~clients ~server ~rate_rps ~duration_ns ~warmup_ns ~rng ~send
    ~parse_id =
  if clients = [] then invalid_arg "Driver.open_loop_conns: no clients";
  let clients_arr = Array.of_list clients in
  let n_clients = Array.length clients_arr in
  List.iter (fun c -> Net.Transport.connect c ~peer:server) clients;
  let ctx = make_ctx engine ~duration_ns ~warmup_ns in
  let m = By_id parse_id in
  List.iter (fun client -> install_rx ctx client m ~on_complete:ignore) clients;
  let master = Sim.Rng.split rng in
  let mean_gap_ns = 1e9 /. rate_rps in
  let rec arrival () =
    if Sim.Engine.now engine < ctx.end_abs then begin
      let conn = Sim.Rng.int master (Conns.length conns) in
      let client = clients_arr.(conn mod n_clients) in
      issue ctx m ~give_up:ignore ~send:(fun id ->
          Conns.with_stream conns conn (fun crng -> send ~conn crng client ~dst:server ~id));
      let gap = Sim.Dist.exponential master ~mean:mean_gap_ns in
      Sim.Engine.schedule engine ~after:(max 1 (int_of_float gap)) arrival
    end
  in
  Sim.Engine.schedule engine ~after:1 arrival;
  finish ctx ~offered_rps:rate_rps

let closed_loop ?reliab engine ~clients ~server ~outstanding ~duration_ns ~warmup_ns ~rng ~send
    ~parse_id =
  if clients = [] then invalid_arg "Driver.closed_loop: no clients";
  if reliab <> None && parse_id = None then
    invalid_arg "Driver.closed_loop: retries need id-matched completions (parse_id)";
  ignore rng;
  List.iter (fun c -> Net.Transport.connect c ~peer:server) clients;
  let ctx = make_ctx ?table:reliab engine ~duration_ns ~warmup_ns in
  List.iter
    (fun client ->
      let m = matcher parse_id in
      let send id = send client ~dst:server ~id in
      let rec next () =
        if Sim.Engine.now engine < ctx.end_abs then issue ctx m ~send ~give_up
      (* An abandoned request still frees its slot, or a lossy run would
         strangle the closed loop. *)
      and give_up _ = next () in
      install_rx ctx client m ~on_complete:next;
      for k = 1 to outstanding do
        Sim.Engine.schedule engine ~after:(k * 211) (fun () -> issue ctx m ~send ~give_up)
      done)
    clients;
  finish ctx ~offered_rps:Float.infinity
