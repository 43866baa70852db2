(* One shard of the cluster: a shared-nothing ownership domain. Each shard
   has its own CPU (sharing the socket L3 with its siblings), endpoint,
   pinned-buffer pool, and store — the only way in or out is a message
   through [Net.Transport], so the ownership story StatCheck and RefSan
   verify for a single rig holds per shard by construction.

   The shard runs [Apps.Kv_app]'s server: the dispatcher's sub-requests
   are ordinary [Apps.Proto] Req messages whose id is the fan-out id, and
   partial responses are Resp messages echoing it. A get answers one value
   slot per key (a miss answers an empty value), which is what lets the
   dispatcher reassemble multi-get responses without re-parsing keys. *)

type t = {
  id : int; (* endpoint id on the fabric *)
  ep : Net.Endpoint.t;
  server : Loadgen.Server.t;
  store : Kvstore.Store.t;
  pool : Mem.Pinned.Pool.t;
  kv : Apps.Kv_app.server;
}

let create ~fabric ~registry ~space ~shared_l3 ~kind ~backend ~queue_limit
    ~index ~id ~pool_classes ~store_capacity =
  let cpu = Memmodel.Cpu.create ~shared_l3 Memmodel.Params.default in
  let ep = Net.Endpoint.create ~cpu fabric registry ~id in
  let tr = Apps.Rig.transport_for ~kind ep in
  let server = Loadgen.Server.create ~queue_limit tr cpu in
  let pool =
    Mem.Pinned.Pool.create space
      ~name:(Printf.sprintf "shard-%d" index)
      ~classes:pool_classes
  in
  Mem.Registry.register registry pool;
  let store =
    Kvstore.Store.create space
      ~name:(Printf.sprintf "shard-%d" index)
      ~capacity:store_capacity
  in
  let kv = Apps.Kv_app.serve ~cpu ~tr server ~space ~backend ~store ~pool in
  { id; ep; server; store; pool; kv }

let id t = t.id

let endpoint t = t.ep

let server t = t.server

let store t = t.store

let pool t = t.pool

let served t = Loadgen.Server.served t.server

let misses t = Apps.Kv_app.misses t.kv
