(* The benchmark's workloads. Offered rates and p99 limits are fixed
   absolute numbers (never derived from a capacity probe at run time), so
   a capacity gain shows as lower latency at the same rates. Windows are
   in simulated ns. *)

type t = {
  name : string;
  mid_rps : float;
  high_rps : float;
  slo_p99_ns : int;
  probe_ns : int; (* one SLO-search probe, warm-up included *)
  mid_ns : int; (* the mid window, warm-up included *)
  high_ns : int; (* the high window, warm-up included *)
  warmup_ns : int; (* unmeasured head of every window *)
  setup_warm_ns : int; (* warm-up drive at [mid_rps] during set-up *)
  tick_ns : int; (* sampler period *)
  build : seed:int -> Probe.t -> Sut.t;
}

let kv_twitter =
  {
    name = "kv-twitter";
    mid_rps = 1_000_000.0;
    high_rps = 1_700_000.0;
    slo_p99_ns = 53_000;
    probe_ns = 12_000_000;
    mid_ns = 40_000_000;
    high_ns = 400_000_000;
    warmup_ns = 2_000_000;
    setup_warm_ns = 20_000_000;
    tick_ns = 1_000_000;
    build =
      (fun ~seed p ->
        Sut.kv ~kind:`Udp ~spec:(Workload.Twitter.make ()) ~seed p);
  }

let kv_cdn_tcp =
  {
    name = "kv-cdn-tcp";
    mid_rps = 800_000.0;
    high_rps = 1_300_000.0;
    slo_p99_ns = 53_000;
    probe_ns = 12_000_000;
    mid_ns = 40_000_000;
    high_ns = 500_000_000;
    warmup_ns = 2_000_000;
    setup_warm_ns = 20_000_000;
    tick_ns = 1_000_000;
    build =
      (fun ~seed p -> Sut.kv ~kind:`Tcp ~spec:(Workload.Cdn.make ()) ~seed p);
  }

let cluster_mget =
  {
    name = "cluster-mget";
    mid_rps = 1_300_000.0;
    high_rps = 2_200_000.0;
    slo_p99_ns = 80_000;
    probe_ns = 14_000_000;
    mid_ns = 40_000_000;
    high_ns = 120_000_000;
    warmup_ns = 2_000_000;
    setup_warm_ns = 10_000_000;
    tick_ns = 1_000_000;
    build =
      Sut.cluster ~shards:4 ~n_keys:32_768 ~zipf_s:0.9 ~n_conns:131_072;
  }

let all = [ kv_twitter; kv_cdn_tcp; cluster_mget ]

let find name = List.find_opt (fun w -> w.name = name) all
