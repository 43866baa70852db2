(** Client-side load drivers.

    Mirrors the paper's 16-thread DPDK load generator (§6.1.1): open-loop
    Poisson arrivals at a configured offered load for the throughput–latency
    curves, and a closed-loop saturation mode for "highest achieved
    throughput" numbers. Latency histograms record at 1 µs precision;
    completions are matched by a response-id parser or FIFO per client.

    Every driver call keeps its outstanding requests in one
    {!Net.Reliab.t} (id -> send time), which assigns the ids handed to
    [send]: 1, 2, … for a table the call creates itself. A response
    completes the request whose id it carries — once: a duplicate or late
    response finds no entry. *)

type result = {
  offered_rps : float;
  achieved_rps : float;
  achieved_gbps : float; (* response payload bits within the window *)
  hist : Stats.Histogram.t; (* RTTs of in-window completions *)
  sent : int;
  completed : int;
  retransmits : int; (* re-sends issued by the reliability layer *)
  abandoned : int; (* requests given up after exhausting retries *)
}

val p99_ns : result -> int

val p50_ns : result -> int

val to_point : result -> Stats.Curve.point

(** [open_loop ...] drives Poisson arrivals of aggregate [rate_rps] from
    [clients] endpoints for [duration_ns]; completions whose request was
    sent after [warmup_ns] and whose response arrived by the end of the run
    count toward the histogram and achieved load.

    [send tr ~dst ~id] issues one request over the client transport;
    [parse_id] extracts the id from a response payload ([None] = FIFO
    matching per client, for protocols whose responses carry no id).
    Connection-oriented transports are connected to [server] at setup, so
    the 3-way handshake overlaps the warmup window and is excluded from
    latency accounting. *)
val open_loop :
  Sim.Engine.t ->
  clients:Net.Transport.t list ->
  server:int ->
  rate_rps:float ->
  duration_ns:int ->
  warmup_ns:int ->
  rng:Sim.Rng.t ->
  send:(Net.Transport.t -> dst:int -> id:int -> unit) ->
  parse_id:(Mem.Pinned.Buf.t -> int) option ->
  result

(** [open_loop_conns ...] — open loop over a packed connection table
    (see {!Conns}): one aggregate Poisson process at [rate_rps] picks a
    uniformly random connection per arrival (the superposition of
    per-connection Poisson streams, without a timer chain per
    connection), rehydrates that connection's private RNG stream, and
    hands it to [send ~conn crng client ~dst ~id]. Connections multiplex
    round-robin over the physical [clients]. Responses must be id-matched
    ([parse_id] is mandatory): a dispatcher fanning requests across
    shards reorders completions, which would desynchronise FIFO
    matching. *)
val open_loop_conns :
  Sim.Engine.t ->
  conns:Conns.t ->
  clients:Net.Transport.t list ->
  server:int ->
  rate_rps:float ->
  duration_ns:int ->
  warmup_ns:int ->
  rng:Sim.Rng.t ->
  send:(conn:int -> Sim.Rng.t -> Net.Transport.t -> dst:int -> id:int -> unit) ->
  parse_id:(Mem.Pinned.Buf.t -> int) ->
  result

(** [closed_loop ...] keeps [outstanding] requests in flight per client
    until [duration_ns]; measures saturation throughput.

    [?reliab] hands the call a table to issue through instead of a fresh
    one — typically created with a retry config, so [send] is re-invoked
    with the same id on retransmission; its ids continue from wherever
    the table stands. A given-up request re-issues a fresh one so loss
    cannot strangle the loop; [retransmits] and [abandoned] count this
    call's share of the table's counters. Retries require [parse_id]
    (raises [Invalid_argument] with FIFO matching — a retransmitted
    request would desynchronise the queue). *)
val closed_loop :
  ?reliab:int Net.Reliab.t ->
  Sim.Engine.t ->
  clients:Net.Transport.t list ->
  server:int ->
  outstanding:int ->
  duration_ns:int ->
  warmup_ns:int ->
  rng:Sim.Rng.t ->
  send:(Net.Transport.t -> dst:int -> id:int -> unit) ->
  parse_id:(Mem.Pinned.Buf.t -> int) option ->
  result
