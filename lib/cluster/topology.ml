(* Cluster topology: N shards + a front-end dispatcher tier + client
   endpoints, wired over one deterministic engine/fabric. Shards model
   the shared-nothing OCaml 5 domains of a real deployment — each owns
   its CPU, pool, and store, and nothing else reaches them — while the
   simulation itself stays single-threaded per job, so `--jobs`
   parallelism (which fans whole topologies across the Par.Pool) cannot
   perturb results.

   The front end defaults to a single dispatcher; deployments that scale
   the data tier scale the routing tier with it (a lone router core
   serves 1+G messages per request and would cap any cluster), so
   [~dispatchers] widens the tier and each connection is pinned to one
   dispatcher for its lifetime — FIFO per connection, like a real L4
   spray.

   Endpoint id map: shards 1..n, dispatchers 90..97, clients 100+. A
   dispatcher demultiplexes its one rx path by source id: shard sources
   are partial responses, everything else is a client request. *)

type t = {
  engine : Sim.Engine.t;
  fabric : Net.Fabric.t;
  registry : Mem.Registry.t;
  ring : Ring.t;
  shards : Shard.t array;
  dispatchers : Dispatcher.t array;
  clients : Net.Transport.t list;
  client : Apps.Kv_app.client; (* request writer and response-id parser *)
  rng : Sim.Rng.t;
  zipf : Sim.Dist.Zipf.t;
  plan_seed : int;
  mget_batch : int;
  mget_fraction : float;
  put_fraction : float;
}

let dispatcher_id = 90

let client_base = 100

(* [create ~shards ~n_keys ~backend ()] builds and populates the cluster.
   [backend] must speak the Cornflakes wire format (an
   [Apps.Backend.cornflakes] config): dispatchers validate and read every
   frame in place with a [Wire.Reader] over the Cornflakes layout, while
   shards and clients go through the backend's [send]/[recv]. *)
let create ?transport ?seed ?(n_clients = 8) ?(dispatchers = 1)
    ?(vnodes = 128) ?(queue_limit = 1_000_000) ?(zipf_s = 0.99)
    ?(mget_batch = 4) ?(mget_fraction = 0.5) ?(put_fraction = 0.05) ~shards:n
    ~n_keys ~backend () =
  if n < 1 then invalid_arg "Topology.create: shards < 1";
  if dispatchers < 1 || dispatchers > client_base - dispatcher_id then
    invalid_arg "Topology.create: dispatchers out of range";
  let seed = match seed with Some s -> s | None -> Apps.Rig.default_seed () in
  let kind =
    match transport with Some k -> k | None -> Apps.Rig.default_transport ()
  in
  let engine = Sim.Engine.create () in
  if Sanitizer.Refsan.is_enabled () then
    Sim.Engine.add_quiesce_hook engine (fun () ->
        Sanitizer.Report.print_quiesce ());
  let fabric = Net.Fabric.create engine in
  let space = Mem.Addr_space.create () in
  let registry = Mem.Registry.create space in
  let shared_l3 =
    Memmodel.Cache.create Memmodel.Params.default.Memmodel.Params.l3
  in
  let shard_ids = List.init n (fun i -> i + 1) in
  let ring = Ring.create ~vnodes shard_ids in
  let plan_seed = seed lxor 0x5eed in
  (* Population plans in parallel on the worker domains; installation —
     pinned pools, stores — serial on this one. *)
  let plans = Plan.for_shards ~ring ~n_keys ~seed:plan_seed shard_ids in
  let shards =
    Array.of_list
      (List.map2
         (fun sid items ->
           Shard.create ~fabric ~registry ~space ~shared_l3 ~kind ~backend
             ~queue_limit ~index:(sid - 1) ~id:sid
             ~pool_classes:(Plan.pool_classes items)
             ~store_capacity:(List.length items + 64))
         shard_ids plans)
  in
  List.iteri (fun i items -> Plan.install items shards.(i)) plans;
  let dispatchers =
    Array.init dispatchers (fun i ->
        Dispatcher.create ~fabric ~registry ~kind ~backend ~queue_limit
          ~id:(dispatcher_id + i) ~ring ~shard_ids)
  in
  let clients =
    List.init n_clients (fun i ->
        Apps.Rig.transport_for ~kind
          (Net.Endpoint.create fabric registry ~id:(client_base + i)))
  in
  (* Every client endpoint may carry traffic for any dispatcher (the
     connection table multiplexes over them), so open the full mesh up
     front — on TCP this fixes the handshake order under any seed. *)
  List.iter
    (fun c ->
      Array.iter
        (fun d -> Net.Transport.connect c ~peer:(Dispatcher.id d))
        dispatchers)
    clients;
  {
    engine;
    fabric;
    registry;
    ring;
    shards;
    dispatchers;
    clients;
    client = Apps.Kv_app.client ~space ~backend clients;
    rng = Sim.Rng.create ~seed;
    zipf = Sim.Dist.Zipf.create ~n:n_keys ~s:zipf_s;
    plan_seed;
    mget_batch;
    mget_fraction;
    put_fraction;
  }

(* Draw one request from a connection's private stream and send it. The op
   mix and Zipf key popularity are functions of that stream alone. *)
let gen_and_send t crng client ~dst ~id =
  let u = Sim.Rng.float crng in
  let op =
    if u < t.put_fraction then
      let rank = Sim.Dist.Zipf.sample t.zipf crng in
      Workload.Spec.Put
        { key = Plan.key_of rank; sizes = [ Plan.size_of ~seed:t.plan_seed rank ] }
    else
      let batch =
        if u < t.put_fraction +. t.mget_fraction then t.mget_batch else 1
      in
      let key _ = Plan.key_of (Sim.Dist.Zipf.sample t.zipf crng) in
      Workload.Spec.Get { keys = List.init batch key }
  in
  Apps.Kv_app.write_op t.client op client ~dst ~id

let parse_id t buf = Apps.Kv_app.read_id t.client buf

let drive t ~conns ~rate_rps ~duration_ns ~warmup_ns =
  let n_disp = Array.length t.dispatchers in
  Loadgen.Driver.open_loop_conns t.engine ~conns ~clients:t.clients
    ~server:dispatcher_id ~rate_rps ~duration_ns ~warmup_ns ~rng:t.rng
    ~send:(fun ~conn crng client ~dst:_ ~id ->
      (* Connection → dispatcher pinning: deterministic, and each client
         keeps a stable front-end like a connection-hashing L4 would. *)
      let dst = Dispatcher.id t.dispatchers.(conn mod n_disp) in
      gen_and_send t crng client ~dst ~id)
    ~parse_id:(fun buf -> parse_id t buf)

let per_shard_served t =
  Array.to_list (Array.map (fun s -> Shard.served s) t.shards)

let shard_list t = Array.to_list t.shards

let engine t = t.engine

let fabric t = t.fabric

let registry t = t.registry

let ring t = t.ring

let dispatcher t = t.dispatchers.(0)

let dispatcher_list t = Array.to_list t.dispatchers

let clients t = t.clients
