(* One benchmark run: set up the workload, measure, check, report.

   End-to-end run (trace off): a [mid] and a [high] window on the
   simulated clock, the SLO search, then more windows at the [high] rate
   until [seconds] of host time have been measured. Traced run: windows
   at the [high] rate alternate untraced and traced; the per-layer
   counters and spans come from the traced ones, host cost from the
   untraced ones, and the difference of the two host costs is the tracing
   overhead. Both end with the drain checks: after the engine quiesces,
   every RX ring and pinned pool is back to its post-set-up count. *)

type opts = {
  workload : Workloads.t;
  seed : int;
  seconds : float;
  trace : bool;
  scale : float; (* shrinks every simulated window (tests) *)
  setup_repeats : int; (* set-ups measured for [setup_s], this one included *)
}

(* Where the traced run writes its Chrome trace and layer table. *)
let out_dir = Filename.concat "perfbench" "out"

type metric = { name : string; unit_ : string; value : float }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list; (* human-readable lines printed before the JSON *)
}

let scaled o ns = max 200_000 (int_of_float (float_of_int ns *. o.scale))

(* --- set-up ---------------------------------------------------------------- *)

let setup o ~start_ns =
  let w = o.workload in
  let probe = Probe.create () in
  let sut = w.build ~seed:o.seed probe in
  Spans.set_engine probe.Probe.spans sut.Sut.engine;
  ignore
    (Measure.run sut probe ~rate_rps:w.mid_rps
       ~duration_ns:(scaled o w.setup_warm_ns) ~warmup_ns:0 ~tick_ns:w.tick_ns
      : Measure.window);
  let setup_s = float_of_int (Clock.now_ns () - start_ns) /. 1e9 in
  (probe, sut, setup_s)

(* Post-set-up resource counts the drain check compares against. *)
type baseline = { rx_out : int list; pool_live : int list }

let baseline sut =
  {
    rx_out = List.map Net.Endpoint.rx_outstanding sut.Sut.endpoints;
    pool_live =
      List.map Mem.Pinned.Pool.live (Mem.Registry.pools sut.Sut.registry);
  }

(* Drops anywhere on the request path: server queues, NIC RX rings and the
   fabric. *)
let drops sut =
  List.fold_left (fun acc (_, s) -> acc + Loadgen.Server.dropped s) 0 sut.Sut.servers
  + List.fold_left (fun acc ep -> acc + Net.Endpoint.rx_dropped ep) 0 sut.Sut.endpoints
  + Net.Fabric.dropped sut.Sut.fabric

let cluster_audit sut =
  match sut.Sut.dispatchers with
  | [] -> None
  | ds ->
      Some (Cluster.Dispatcher.merge_audits (List.map Cluster.Dispatcher.audit ds))

(* What the checks compare against: resource counts and the dispatcher
   audit after set-up. An SLO-search probe past capacity may lose
   requests (a full RX ring drops frames; a fan-out missing a partial
   stays pending, as the dispatcher has no fan-out timeout), so after a
   lossy probe the comparison point moves to the drained state after it. *)
type reference = { mutable base : baseline; mutable audit : Cluster.Dispatcher.audit option }

let reference sut = { base = baseline sut; audit = cluster_audit sut }

(* The audit of the requests since the reference point; completions per
   id stay run-wide, as ids are never reused within a run. *)
let audit_since (a0 : Cluster.Dispatcher.audit option) (a : Cluster.Dispatcher.audit) =
  match a0 with
  | None -> a
  | Some a0 ->
      {
        a with
        fanouts_started = a.fanouts_started - a0.fanouts_started;
        fanouts_completed = a.fanouts_completed - a0.fanouts_completed;
        partials = a.partials - a0.partials;
        dup_partials = a.dup_partials - a0.dup_partials;
        orphan_partials = a.orphan_partials - a0.orphan_partials;
        misaligned = a.misaligned - a0.misaligned;
        in_flight = a.in_flight - a0.in_flight;
      }

(* The checks that need a drained engine: RX rings and pinned pools back
   at their reference counts, and the cluster's exactly-once audit. Every
   window drains the engine, so this holds between windows too. *)
let drained_ok sut (ref_ : reference) ~notes =
  let base = ref_.base and now = baseline sut in
  let leaks =
    List.fold_left2 (fun acc a b -> acc + abs (a - b)) 0 base.rx_out now.rx_out
    + List.fold_left2 (fun acc a b -> acc + abs (a - b)) 0 base.pool_live
        now.pool_live
  in
  notes :=
    Printf.sprintf "drain: rx/pool buffers off their reference counts=%d" leaks
    :: !notes;
  let cluster_ok =
    match cluster_audit sut with
    | None -> true
    | Some a ->
        let a = audit_since ref_.audit a in
        let ok = Cluster.Dispatcher.exactly_once a in
        notes :=
          Printf.sprintf
            "cluster audit: fanouts %d/%d dup=%d orphan=%d misaligned=%d in_flight=%d maxcomp=%d exactly_once=%b"
            a.fanouts_started a.fanouts_completed a.dup_partials
            a.orphan_partials a.misaligned a.in_flight a.max_completions_per_id
            ok
          :: !notes;
        ok
  in
  leaks = 0 && cluster_ok

let final_checks sut (probe : Probe.t) ~ref_ ~notes =
  Sim.Engine.quiesce sut.Sut.engine;
  let ok = drained_ok sut ref_ ~notes in
  notes := Checks.summary probe.Probe.checks :: !notes;
  ok && Checks.violations probe.Probe.checks = 0

let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec go () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
      | _ -> go ()
      | exception End_of_file -> nan
    in
    let v = go () in
    close_in ic;
    v
  with Sys_error _ -> nan

(* Set-up time of a fresh process: this executable in --setup-only mode. *)
let child_setup o =
  let args =
    [| Sys.executable_name; "--setup-only"; "--workload"; o.workload.name;
       "--seed"; string_of_int o.seed; "--scale"; string_of_float o.scale |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Scanf.sscanf (String.trim out) "setup_s %f" Fun.id
  | _ -> failwith "set-up child failed"

let us ns = ns /. 1e3

let m name unit_ value = { name; unit_; value }

(* --- end-to-end run -------------------------------------------------------- *)

let run_e2e o ~start_ns =
  let w = o.workload in
  let probe, sut, setup_first = setup o ~start_ns in
  let ref_ = reference sut in
  let notes = ref [] in
  let window ~rate ~ns =
    Measure.run sut probe ~rate_rps:rate ~duration_ns:(scaled o ns)
      ~warmup_ns:(scaled o w.warmup_ns) ~tick_ns:w.tick_ns
  in
  (* The extra set-ups run spread over the run, between windows, so a
     burst of load from elsewhere on the host skews at most a few. *)
  let extra = ref [] in
  let child_setup () =
    if List.length !extra < o.setup_repeats - 1 then
      extra := child_setup o :: !extra
  in
  let drops0 = drops sut in
  let mid = window ~rate:w.mid_rps ~ns:w.mid_ns in
  child_setup ();
  let high = window ~rate:w.high_rps ~ns:w.high_ns in
  child_setup ();
  (* Peak RSS of set-up and the fixed rates. The search below overloads
     the system on purpose and the host-clock loop runs as many windows
     as [seconds] allows; neither may move this figure. *)
  let rss = peak_rss_mb () in
  let fixed_ok = drained_ok sut ref_ ~notes in
  let fixed_drops = ref (drops sut - drops0) in
  let search =
    Measure.search
      ~probe:(fun rate ->
        let d0 = drops sut in
        let x = window ~rate ~ns:w.probe_ns in
        if x.unanswered > 0 || drops sut > d0 then begin
          notes :=
            Printf.sprintf
              "  probe at %.0f krps lost requests; checks now compare against the state after it"
              (rate /. 1e3)
            :: !notes;
          ref_.base <- baseline sut;
          ref_.audit <- cluster_audit sut
        end;
        x)
      ~start:w.high_rps ~slo_ns:w.slo_p99_ns ~step:1.25 ~resolution:0.02
      ~max_probes:12
  in
  List.iter
    (fun (p : Measure.window) ->
      notes :=
        Printf.sprintf
          "  probe %8.0f krps: p99 %.2f us, backlog %.1f -> %.1f, done %d/%d, unanswered %d -> %s"
          (p.rate_rps /. 1e3) (us (Measure.percentile p 0.99)) p.backlog_q2
          p.backlog_q4 p.done_by_end p.in_window p.unanswered
          (if Measure.meets p ~slo_ns:w.slo_p99_ns then "meets" else "misses")
        :: !notes)
    search.probes;
  child_setup ();
  (* Host clock: the [high] window, then more (mid-length) windows at the
     [high] rate until [seconds] of host time are measured. *)
  let drops1 = drops sut in
  let host = ref [ high ] and host_ns = ref high.host_ns in
  while float_of_int !host_ns < o.seconds *. 1e9 do
    let h = window ~rate:w.high_rps ~ns:w.mid_ns in
    host := h :: !host;
    host_ns := !host_ns + h.host_ns
  done;
  fixed_drops := !fixed_drops + (drops sut - drops1);
  let fixed = mid :: !host in
  let attempted = List.fold_left (fun acc (x : Measure.window) -> acc + x.sent) 0 fixed in
  let unanswered =
    List.fold_left (fun acc (x : Measure.window) -> acc + x.unanswered) 0 fixed
  in
  Checks.add_unanswered probe.Probe.checks unanswered;
  let failed = unanswered + !fixed_drops in
  let ok = fixed_ok && final_checks sut probe ~ref_ ~notes in
  while List.length !extra < o.setup_repeats - 1 do
    child_setup ()
  done;
  let setups = setup_first :: List.rev !extra in
  let best_rps, best_gbps =
    match search.best with
    | Some b -> (b.rate_rps, Measure.gbps b)
    | None -> (0.0, 0.0)
  in
  let p w q = us (Measure.percentile w q) in
  let all_slices = List.concat_map (fun (x : Measure.window) -> x.slices) !host in
  let q = Measure.quantile all_slices in
  notes :=
    Printf.sprintf
      "host ns/req over slices, p10/p25/p50/p75: %.0f %.0f %.0f %.0f (the traced run reports host_ns_per_req)"
      (q 0.1) (q 0.25) (q 0.5) (q 0.75)
    :: Printf.sprintf
      "samples: mid=%d high=%d (beyond p99.9: %d); host slices=%d over %d windows; set-ups=%s"
      (Array.length mid.lat) (Array.length high.lat) (Measure.beyond high 0.999)
      (List.length all_slices) (List.length !host)
      (String.concat "," (List.map (Printf.sprintf "%.3f") setups))
    :: Printf.sprintf "fail_frac=%g (failed %d of %d at the fixed rates)"
         (float_of_int failed /. float_of_int (max 1 attempted))
         failed attempted
    :: !notes;
  let metrics =
    [
      m "sim_krps_at_slo" "krps" (best_rps /. 1e3);
      m "sim_gbps_at_slo" "Gbps" best_gbps;
      m "sim_p50_us.mid" "us" (p mid 0.50);
      m "sim_p99_us.mid" "us" (p mid 0.99);
      m "sim_p50_us.high" "us" (p high 0.50);
      m "sim_p99_us.high" "us" (p high 0.99);
      m "sim_p999_us.high" "us" (p high 0.999);
      m "sim_cpu_ns_per_req" "ns" (high.cpu_ns /. float_of_int (max 1 high.sent));
      m "host_words_per_req" "words"
        (high.words /. float_of_int (max 1 high.sent));
      m "peak_rss_mb" "MB" rss;
      m "setup_s" "s" (Measure.median setups);
      m "ok_frac" "frac"
        (1.0 -. (float_of_int failed /. float_of_int (max 1 attempted)));
    ]
  in
  let enough = Measure.beyond high 0.999 >= 10 in
  if not enough then notes := "too few samples beyond p99.9 in the high window" :: !notes;
  {
    correct = ok && enough && failed = 0;
    attempted;
    failed;
    metrics;
    notes = List.rev !notes;
  }

(* --- traced run ------------------------------------------------------------ *)

(* Counters of the layers, read before and after the traced window. *)
type snap = {
  cats : float array; (* simulated ns per Memmodel category, server cores *)
  busy : (Sut.role * int * int) list; (* role, busy ns, served *)
  dropped : int;
  tx_pkts : int;
  doorbells : int;
  tx_bytes : int;
  rx_dropped : int;
  fabric_dropped : int;
  recycle_hits : int;
  oom : int;
  retrans : int;
  zc_fwd : int;
  copy_fwd : int;
  shard_served : int list;
  sg : int;
  sends : int;
  answered : int;
}

let cats = Array.of_list Memmodel.Cpu.all_categories

let cat_name = function
  | Memmodel.Cpu.Rx -> "rx"
  | Deser -> "deser"
  | App -> "app"
  | Alloc -> "alloc"
  | Copy -> "copy"
  | Safety -> "safety"
  | Tx -> "tx"
  | Other -> "other"

let snap sut (probe : Probe.t) =
  let servers = sut.Sut.servers in
  let eps = Sut.server_eps sut in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let c =
    Array.map
      (fun cat ->
        List.fold_left
          (fun acc cpu ->
            let cyc = List.assoc cat (Memmodel.Cpu.breakdown cpu) in
            acc +. Memmodel.Params.cycles_to_ns (Memmodel.Cpu.params cpu) cyc)
          0.0 (Sut.server_cpus sut))
      cats
  in
  {
    cats = c;
    busy =
      List.map
        (fun (r, s) -> (r, Loadgen.Server.busy_ns s, Loadgen.Server.served s))
        servers;
    dropped = sum (fun (_, s) -> Loadgen.Server.dropped s) servers;
    tx_pkts = sum Net.Endpoint.tx_packets eps;
    doorbells = sum Net.Endpoint.doorbells eps;
    tx_bytes = sum Net.Endpoint.tx_bytes eps;
    rx_dropped = sum Net.Endpoint.rx_dropped sut.Sut.endpoints;
    fabric_dropped = Net.Fabric.dropped sut.Sut.fabric;
    recycle_hits = sum (fun ep -> Mem.Arena.recycle_hits (Net.Endpoint.arena ep)) eps;
    oom = sum (fun ep -> Mem.Arena.oom_events (Net.Endpoint.arena ep)) eps;
    retrans =
      sum Tcp.Conn.retransmissions (sut.Sut.tcp_conns () @ sut.Sut.client_tcp_conns ());
    zc_fwd = sum Cluster.Dispatcher.zc_forwards sut.Sut.dispatchers;
    copy_fwd = sum Cluster.Dispatcher.copy_forwards sut.Sut.dispatchers;
    shard_served = List.map Cluster.Shard.served sut.Sut.shards;
    sg = probe.Probe.sg_entries;
    sends = probe.Probe.server_sends;
    answered = probe.Probe.checks.Checks.answered;
  }

let per a b = if b = 0.0 then 0.0 else a /. b

let layer_metrics sut (w : Measure.window) (a : snap) (b : snap) =
  let reqs = float_of_int (b.answered - a.answered) in
  let d f = float_of_int (f b - f a) in
  let cat i = m ("memmodel." ^ cat_name cats.(i) ^ "_ns") "ns/req"
      (per (b.cats.(i) -. a.cats.(i)) reqs)
  in
  let role_busy role =
    List.fold_left2
      (fun (busy, served, n) (r, b1, s1) (_, b0, s0) ->
        if r = role then (busy + (b1 - b0), served + (s1 - s0), n + 1)
        else (busy, served, n))
      (0, 0, 0) b.busy a.busy
  in
  let busy_frac =
    List.fold_left2
      (fun acc (_, b1, _) (_, b0, _) ->
        max acc (float_of_int (b1 - b0) /. float_of_int w.window_ns))
      0.0 b.busy a.busy
  in
  let svc role =
    let busy, served, _ = role_busy role in
    per (float_of_int busy) (float_of_int served)
  in
  let served = List.map2 (fun x y -> float_of_int (x - y)) b.shard_served a.shard_served in
  let imbalance =
    match served with
    | [] -> 0.0
    | l ->
        let mean = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
        per (List.fold_left max 0.0 l) mean
  in
  let fwd = d (fun s -> s.zc_fwd) +. d (fun s -> s.copy_fwd) in
  let violations =
    match cluster_audit sut with
    | None -> 0
    | Some au ->
        au.dup_partials + au.orphan_partials + au.misaligned + au.in_flight
        + abs (au.fanouts_started - au.fanouts_completed)
        + max 0 (au.max_completions_per_id - 1)
  in
  List.init (Array.length cats) cat
  @ [
      m "loadgen.busy_frac" "frac" busy_frac;
      m "loadgen.queue_drops" "count" (d (fun s -> s.dropped));
      m "nic.tx_pkts_per_req" "pkts/req" (per (d (fun s -> s.tx_pkts)) reqs);
      m "nic.doorbells_per_req" "count/req" (per (d (fun s -> s.doorbells)) reqs);
      m "nic.tx_bytes_per_req" "B/req" (per (d (fun s -> s.tx_bytes)) reqs);
      m "nic.rx_dropped" "count" (d (fun s -> s.rx_dropped));
      m "net.fabric_dropped" "count" (d (fun s -> s.fabric_dropped));
      m "net.sg_entries_per_send" "entries"
        (per (d (fun s -> s.sg)) (d (fun s -> s.sends)));
      m "mem.arena_recycle_hits_per_req" "count/req"
        (per (d (fun s -> s.recycle_hits)) reqs);
      m "mem.arena_oom_events" "count" (d (fun s -> s.oom));
      m "mem.pinned_live_peak" "bufs" (float_of_int w.pinned_peak);
      m "tcp.retransmissions" "count" (d (fun s -> s.retrans));
      m "tcp.unacked_bytes_peak" "B" (float_of_int w.unacked_peak);
      m "cluster.zc_forward_frac" "frac" (per (d (fun s -> s.zc_fwd)) fwd);
      m "cluster.shard_imbalance" "ratio" imbalance;
      m "cluster.audit_violations" "count" (float_of_int violations);
      m "loadgen.svc_ns.dispatcher" "ns" (svc Sut.Dispatcher);
      m "loadgen.svc_ns.shard" "ns" (svc Sut.Shard);
    ]

let span_metrics (t : Spans.totals) ~reqs ~host_ns =
  List.concat_map
    (fun l ->
      let i = Spans.index l and n = Spans.name l in
      let calls = float_of_int t.calls.(i) in
      [
        m (n ^ ".self_ns_per_call") "ns/call" (per (float_of_int t.self_ns.(i)) calls);
        m (n ^ ".calls_per_req") "calls/req" (per calls reqs);
        m (n ^ ".words_per_call") "words/call" (per t.self_words.(i) calls);
      ])
    Spans.layers
  @ [
      m "sim.engine.other.ns_per_req" "ns/req"
        (per (float_of_int (host_ns - t.root_ns)) reqs);
    ]

let layer_table (t : Spans.totals) ~reqs ~host_ns =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-28s %12s %10s %12s %12s\n" "layer" "self ns/call"
       "calls/req" "self ns/req" "words/call");
  List.iter
    (fun l ->
      let i = Spans.index l in
      let calls = float_of_int t.calls.(i) in
      Buffer.add_string b
        (Printf.sprintf "%-28s %12.1f %10.3f %12.1f %12.1f\n" (Spans.name l)
           (per (float_of_int t.self_ns.(i)) calls)
           (per calls reqs)
           (per (float_of_int t.self_ns.(i)) reqs)
           (per t.self_words.(i) calls)))
    Spans.layers;
  Buffer.add_string b
    (Printf.sprintf "%-28s %12s %10s %12.1f %12s\n" "sim.engine.other" "-" "-"
       (per (float_of_int (host_ns - t.root_ns)) reqs)
       "-");
  Buffer.contents b

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let run_traced o ~start_ns =
  let w = o.workload in
  let probe, sut, _ = setup o ~start_ns in
  let ref_ = reference sut in
  let notes = ref [] in
  let spans = probe.Probe.spans in
  let window ?deep () =
    Measure.run ?deep sut probe ~rate_rps:w.high_rps
      ~duration_ns:(scaled o w.mid_ns) ~warmup_ns:(scaled o w.warmup_ns)
      ~tick_ns:w.tick_ns
  in
  let untraced = ref [] and traced = ref [] in
  let drops0 = drops sut in
  let layers = ref None in
  let minor = ref 0 and promoted = ref 0.0 and major = ref 0 in
  let span_tot = ref Spans.zero and traced_host = ref 0 and traced_reqs = ref 0 in
  let elapsed = ref 0 in
  while !elapsed < int_of_float (o.seconds *. 1e9) || List.is_empty !traced do
    let g0 = Gc.quick_stat () in
    let u = window () in
    let g1 = Gc.quick_stat () in
    minor := !minor + (g1.minor_collections - g0.minor_collections);
    promoted := !promoted +. (g1.promoted_words -. g0.promoted_words);
    major := !major + (g1.major_collections - g0.major_collections);
    untraced := u :: !untraced;
    let a = snap sut probe and s0 = Spans.totals spans in
    Spans.set_on spans true;
    let t = window ~deep:true () in
    Spans.set_on spans false;
    let b = snap sut probe and s1 = Spans.totals spans in
    if Option.is_none !layers then layers := Some (layer_metrics sut t a b);
    span_tot := Spans.add !span_tot (Spans.diff s0 s1);
    traced_host := !traced_host + t.host_ns;
    traced_reqs := !traced_reqs + (b.answered - a.answered);
    traced := t :: !traced;
    elapsed := !elapsed + u.host_ns + t.host_ns
  done;
  let all = !untraced @ !traced in
  let attempted = List.fold_left (fun acc (x : Measure.window) -> acc + x.sent) 0 all in
  let unanswered =
    List.fold_left (fun acc (x : Measure.window) -> acc + x.unanswered) 0 all
  in
  Checks.add_unanswered probe.Probe.checks unanswered;
  let failed = unanswered + (drops sut - drops0) in
  let ok = final_checks sut probe ~ref_ ~notes in
  let slices l = List.concat_map (fun (x : Measure.window) -> x.slices) l in
  let host_u = Measure.lower_quartile (slices !untraced) in
  let host_t = Measure.lower_quartile (slices !traced) in
  let reqs = float_of_int !traced_reqs in
  let untraced_reqs =
    float_of_int
      (List.fold_left (fun acc (x : Measure.window) -> acc + x.sent) 0 !untraced)
  in
  (* GC work of the untraced windows. *)
  let gc =
    [
      m "gc.minor_collections_per_kreq" "count/kreq"
        (per (float_of_int !minor) (untraced_reqs /. 1e3));
      m "gc.promoted_words_per_req" "words/req" (per !promoted untraced_reqs);
      m "gc.major_collections" "count" (float_of_int !major);
    ]
  in
  let metrics =
    Option.value ~default:[] !layers
    @ span_metrics !span_tot ~reqs ~host_ns:!traced_host
    @ gc
    @ [
        m "host_ns_per_req" "ns" host_u;
        m "trace.host_ns_per_req.traced" "ns" host_t;
        m "trace.overhead_ns_per_req" "ns" (host_t -. host_u);
      ]
  in
  let table = layer_table !span_tot ~reqs ~host_ns:!traced_host in
  mkdir_p out_dir;
  let stem =
    Filename.concat out_dir (Printf.sprintf "%s-seed%d" w.name o.seed)
  in
  Spans.write_chrome spans (stem ^ ".trace.json");
  Out_channel.with_open_text (stem ^ ".layers.txt") (fun oc ->
      output_string oc table);
  let notes =
    List.rev !notes
    @ [
        "per-layer host self time (traced windows):";
        table;
        Printf.sprintf "wrote %s.trace.json and %s.layers.txt" stem stem;
      ]
  in
  { correct = ok && failed = 0; attempted; failed; metrics; notes }

(* --- output ---------------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let to_json r =
  let metrics =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (json_number x.value) x.unit_)
         r.metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed metrics

