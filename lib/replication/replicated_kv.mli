(** Primary-backup replicated key-value store.

    The paper validates nested-object support "with a replicated key value
    store application that serializes nested Protobuf objects" (§4). This is
    that application: clients talk to a primary; puts are applied locally,
    forwarded to every backup as a {e nested} Cornflakes object (the
    client's put request embedded in a replication frame), acknowledged,
    and only then acked to the client. Values of 512 B and up travel to the
    backups zero-copy out of the primary's own store — replication traffic
    exercises exactly the same hybrid path as client responses.

    It speaks the kv protocol of [lib/apps/kv.proto] throughout: clients
    are {!Apps.Kv_app.client}, and the primary is a second kv server whose
    puts go to the backups through the generated [Backup] service:
    {v
    message Rep { uint64 id = 1; uint32 op = 2; Req put = 3; }
    service Backup { rpc Replicate (Rep) returns (Resp); }
    v}

    Ordering: the primary keeps one call table per backup, so a backup's
    call ids 1, 2, … are its sequence numbers. Backups apply in that order,
    park out-of-order arrivals, and re-ack duplicates without applying them
    again; each op is acked only once it is applied. (Loss recovery is out
    of scope: the calls do not retry, as the paper's UDP prototype assumes
    a reliable fabric for its own experiments.) *)

type cluster

(** [create rig ~backups ~workload] builds one primary (the rig's server)
    plus [backups] backup servers, each single-core with its own store,
    populated identically from the workload. *)
val create : Apps.Rig.t -> backups:int -> workload:Workload.Spec.t -> cluster

val primary_store : cluster -> Kvstore.Store.t

val backup_stores : cluster -> Kvstore.Store.t list

(** Backup [i]'s endpoint: replicate frames go to its id. *)
val backup_endpoint : cluster -> int -> Net.Endpoint.t

(** The primary's call state toward each backup, in backup order. *)
val backup_links : cluster -> Rpc.Client.t list

(** Puts acknowledged to clients so far (i.e. fully replicated). *)
val committed : cluster -> int

(** Client-side: issue an op to the primary through
    {!Apps.Kv_app.write_op} ([id] echoes back in the response). *)
val send_op :
  cluster -> Workload.Spec.op -> Net.Transport.t -> dst:int -> id:int -> unit

val send_next : cluster -> Net.Transport.t -> dst:int -> id:int -> unit

(** Client-side response-id parser: {!Apps.Kv_app.read_id}. *)
val parse_id : cluster -> Mem.Pinned.Buf.t -> int
