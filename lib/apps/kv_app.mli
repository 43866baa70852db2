(** The custom key-value store application (§6.1.2), parameterised by a
    serialization backend.

    The server deserializes a [Req], looks keys up in the store, wraps each
    value buffer through the backend (Cornflakes: hybrid CFPtr; baselines:
    literal views copied at serialization time), and sends a [Resp] with
    the combined serialize-and-send path of the backend. Puts allocate new
    pinned buffers and swap pointers — never updating values in place — per
    the Cornflakes memory-safety model (§4.1).

    The client half is the only kv client in the repository: the
    cluster's and the replicated store's clients use its request writer
    and response-id parser. A cluster shard runs the server half over its
    own cpu, endpoint, store and pool. The replicated store's primary is
    the one other kv server: it reads requests in place and answers a put
    only once every backup has applied it. *)

(** {1 Server half} *)

(** One kv server: the generated [Kv_service] skeleton with its get,
    get-index and put rows, over one store and pool. *)
type server

(** [serve ~cpu ~tr loadgen ~space ~backend ~store ~pool] builds the
    server and installs its handler on [loadgen].

    Get answers one value slot per requested key, in request order; a
    missed key answers an empty value, so a multi-get response stays
    positionally aligned with its keys. Get-index answers the indexed
    element of a vector value, or nothing. Put copies the request values
    in with {!Kvstore.Store.put_copy}. *)
val serve :
  cpu:Memmodel.Cpu.t ->
  tr:Net.Transport.t ->
  Loadgen.Server.t ->
  space:Mem.Addr_space.t ->
  backend:Backend.t ->
  store:Kvstore.Store.t ->
  pool:Mem.Pinned.Pool.t ->
  server

(** Get keys not found in the store. *)
val misses : server -> int

(** {1 Client half (uncharged)} *)

(** The request writer and response-id parser over a set of client
    transports. *)
type client

val client :
  space:Mem.Addr_space.t -> backend:Backend.t -> Net.Transport.t list -> client

(** [write_op c op tr ~dst ~id] sends [op] as request [id] from [tr], then
    recycles [tr]'s arena. *)
val write_op :
  client -> Workload.Spec.op -> Net.Transport.t -> dst:int -> id:int -> unit

(** [read_id c buf] reads a response's id ([-1] if absent) through the
    backend's {!Backend.t.id_reader}, built once per client, and recycles
    every client arena. A Cornflakes reply is validated once and its id
    read in place, with no [Wire.Dyn], no reference taken and no
    allocation; a rejected frame raises {!Wire.Reader.Invalid}, which the
    load drivers count as an unmatched reply. *)
val read_id : client -> Mem.Pinned.Buf.t -> int

(** {1 The app} *)

type t

(** [install rig ~backend ~workload] populates a store per the workload and
    installs the request handler on the rig's server. *)
val install : Rig.t -> backend:Backend.t -> workload:Workload.Spec.t -> t

(** [switch_backend t backend] reuses the populated store and pool under a
    different serializer (avoids re-populating between systems). The new
    server starts with resilience mode off. *)
val switch_backend : t -> Backend.t -> t

(** Turn on resilience mode: duplicate requests (retransmissions,
    fabric-duplicated frames) are witnessed against [dedup]; duplicate
    puts are suppressed (answered with an id-only ack) while gets — being
    idempotent — are re-executed to regenerate a lost response. Client
    side, [send_next] replays the cached op for a retried id instead of
    drawing a fresh one. *)
val enable_resilience : t -> dedup:Net.Dedup.t -> unit

(** Duplicate puts suppressed by the dedup window. *)
val puts_suppressed : t -> int

(** Per-request-id put application counts (resilience mode only), sorted
    by id — every count must be 1 for exactly-once semantics. *)
val put_apply_counts : t -> (int * int) list

val store : t -> Kvstore.Store.t

(** Client-side request sender for a workload op. *)
val send_op :
  t -> Workload.Spec.op -> Net.Transport.t -> dst:int -> id:int -> unit

(** Client-side generator: draws the next op from the workload. *)
val send_next : t -> Net.Transport.t -> dst:int -> id:int -> unit

(** Client-side response-id parser: {!read_id} (uncharged; resets the
    client arenas), then forgets the op cached for a retried id. *)
val parse_id : t -> Mem.Pinned.Buf.t -> int
