(* The system under test: a kv rig or a cluster topology, built from the
   seed, with the probe's wrappers threaded through the public records
   each layer takes. Everything the measurement needs — the open-loop
   drive, the server cores, the endpoints and pools whose counters it
   reads — is exposed here uniformly for both shapes. *)

type role = Server | Dispatcher | Shard

type t = {
  engine : Sim.Engine.t;
  fabric : Net.Fabric.t;
  registry : Mem.Registry.t;
  servers : (role * Loadgen.Server.t) list;
  endpoints : Net.Endpoint.t list; (* every endpoint, servers first *)
  tcp_conns : unit -> Tcp.Conn.t list; (* server-side connections *)
  client_tcp_conns : unit -> Tcp.Conn.t list;
  dispatchers : Cluster.Dispatcher.t list;
  shards : Cluster.Shard.t list;
  (* [drive ~rate_rps ~duration_ns ~warmup_ns] runs one open-loop window
     from the engine's current time and drains the engine. *)
  drive : rate_rps:float -> duration_ns:int -> warmup_ns:int -> unit;
}

let server_cpus t = List.map (fun (_, s) -> Loadgen.Server.cpu s) t.servers

let server_eps t = List.map (fun (_, s) -> Loadgen.Server.endpoint s) t.servers

(* --- kv: one single-core server and 16 clients --------------------------- *)

(* Mirrors [Apps.Rig.create] so the TCP stacks stay reachable for their
   per-connection counters. *)
let kv_rig ~kind ~seed =
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create engine in
  let space = Mem.Addr_space.create () in
  let registry = Mem.Registry.create space in
  let cpu = Memmodel.Cpu.create Memmodel.Params.default in
  let stacks = ref [] in
  let as_transport ep =
    match kind with
    | `Udp -> Net.Endpoint.transport ep
    | `Tcp ->
        let s = Tcp.Stack.attach ep in
        stacks := s :: !stacks;
        Tcp.transport s
  in
  let server_ep =
    Net.Endpoint.create ~cpu ~config:Net.Endpoint.default_config fabric
      registry ~id:Apps.Rig.server_id
  in
  let server_tr = as_transport server_ep in
  let server = Loadgen.Server.create server_tr cpu in
  let clients =
    List.init 16 (fun i ->
        as_transport (Net.Endpoint.create fabric registry ~id:(100 + i)))
  in
  let rig =
    {
      Apps.Rig.engine;
      fabric;
      space;
      registry;
      cpu;
      server_ep;
      server_tr;
      server;
      clients;
      transport_kind = kind;
      rng = Sim.Rng.create ~seed;
    }
  in
  (rig, List.rev !stacks)

let conns_of stacks ~peers =
  List.concat_map
    (fun s -> List.filter_map (fun peer -> Tcp.Stack.conn s ~peer) peers)
    stacks

let kv ~kind ~spec ~seed (probe : Probe.t) =
  let rig, stacks = kv_rig ~kind ~seed in
  let raw = Apps.Backend.cornflakes () in
  let backend = Probe.backend probe raw in
  let workload = Probe.workload probe spec in
  let app = Apps.Kv_app.install rig ~backend ~workload in
  Checks.set_store probe.Probe.checks (Apps.Kv_app.store app);
  let engine = rig.Apps.Rig.engine in
  let decode = Probe.decode_vals raw (List.hd rig.Apps.Rig.clients) in
  let send tr ~dst ~id =
    let gid = Probe.send_begin probe ~now:(Sim.Engine.now engine) ~id in
    Apps.Kv_app.send_next app tr ~dst ~id:gid;
    Probe.send_end probe
  in
  let parse_id buf =
    Probe.parse_begin probe buf;
    let gid = Apps.Kv_app.parse_id app buf in
    Probe.parse_end probe ~now:(Sim.Engine.now engine) ~gid ~buf ~decode
  in
  let server_stack, client_stacks =
    match stacks with s :: rest -> ([ s ], rest) | [] -> ([], [])
  in
  {
    engine;
    fabric = rig.Apps.Rig.fabric;
    registry = rig.Apps.Rig.registry;
    servers = [ (Server, rig.Apps.Rig.server) ];
    endpoints = Apps.Rig.endpoints rig;
    tcp_conns =
      (fun () -> conns_of server_stack ~peers:(List.init 16 (fun i -> 100 + i)));
    client_tcp_conns =
      (fun () -> conns_of client_stacks ~peers:[ Apps.Rig.server_id ]);
    dispatchers = [];
    shards = [];
    drive =
      (fun ~rate_rps ~duration_ns ~warmup_ns ->
        ignore
          (Loadgen.Driver.open_loop engine ~clients:rig.Apps.Rig.clients
             ~server:Apps.Rig.server_id ~rate_rps ~duration_ns ~warmup_ns
             ~rng:rig.Apps.Rig.rng ~send ~parse_id:(Some parse_id)
            : Loadgen.Driver.result));
  }

(* --- cluster: shards behind a dispatcher tier, packed connections --------- *)

(* The stored data (value sizes, ring placement) comes from a fixed seed,
   as the kv workloads' populate does; [seed] drives the requests: each
   connection's key and op stream, and the arrival process. *)
let data_seed = 0xc1a5

let cluster ~shards ~n_keys ~zipf_s ~n_conns ~seed (probe : Probe.t) =
  let backend = Probe.backend probe (Apps.Backend.cornflakes ()) in
  let topo =
    Cluster.Topology.create ~transport:`Udp ~seed:data_seed ~shards
      ~dispatchers:shards ~n_keys ~zipf_s ~backend ()
  in
  let conns = Loadgen.Conns.create ~seed n_conns in
  let rng = Sim.Rng.create ~seed in
  let engine = Cluster.Topology.engine topo in
  let disp = Array.of_list (Cluster.Topology.dispatcher_list topo) in
  let n_disp = Array.length disp in
  let decode _ = "" in
  let send ~conn crng client ~dst:_ ~id =
    let gid = Probe.send_begin probe ~now:(Sim.Engine.now engine) ~id in
    (* Connection -> dispatcher pinning, as [Topology.drive] does. *)
    let dst = Cluster.Dispatcher.id disp.(conn mod n_disp) in
    Cluster.Topology.gen_and_send topo crng client ~dst ~id:gid;
    Probe.send_end probe
  in
  let parse_id buf =
    Probe.parse_begin probe buf;
    let gid = Cluster.Topology.parse_id topo buf in
    Probe.parse_end probe ~now:(Sim.Engine.now engine) ~gid ~buf ~decode
  in
  let shard_l = Cluster.Topology.shard_list topo in
  let disp_l = Array.to_list disp in
  {
    engine;
    fabric = Cluster.Topology.fabric topo;
    registry = Cluster.Topology.registry topo;
    servers =
      List.map (fun d -> (Dispatcher, Cluster.Dispatcher.server d)) disp_l
      @ List.map (fun s -> (Shard, Cluster.Shard.server s)) shard_l;
    endpoints =
      List.map Cluster.Dispatcher.endpoint disp_l
      @ List.map Cluster.Shard.endpoint shard_l
      @ List.map Net.Transport.endpoint (Cluster.Topology.clients topo);
    tcp_conns = (fun () -> []);
    client_tcp_conns = (fun () -> []);
    dispatchers = disp_l;
    shards = shard_l;
    drive =
      (fun ~rate_rps ~duration_ns ~warmup_ns ->
        ignore
          (Loadgen.Driver.open_loop_conns engine ~conns
             ~clients:(Cluster.Topology.clients topo)
             ~server:Cluster.Topology.dispatcher_id ~rate_rps ~duration_ns
             ~warmup_ns ~rng ~send ~parse_id
            : Loadgen.Driver.result));
  }
