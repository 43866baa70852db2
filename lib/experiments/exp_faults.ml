(* Faultline degradation curve ("bench faults"): the kv store over the
   Twitter workload (§6.1.2 — the put-bearing trace) driven closed-loop
   under increasing fault pressure, with the full resilience stack on:
   client retry/backoff (Net.Reliab), server duplicate suppression
   (Net.Dedup via Kv_app resilience mode), the Reliab-owned TX-ring reaper
   recovering lost completions, and zero-copy demotion under ring
   pressure. One fresh rig per loss point; every stochastic choice derives
   from the bench seed, so the same seed replays byte-identically. *)

type point = {
  loss : float;
  achieved_rps : float;
  goodput_gbps : float;
  p50_ns : int;
  p99_ns : int;
  sent : int;
  completed : int;
  retransmits : int;
  abandoned : int;
  (* fabric *)
  fab_dropped : int;
  drops_to_server : int;
  corrupted : int;
  duplicated : int;
  server_rx_dropped : int;
  (* NIC completions (server device) *)
  cqe_lost : int;
  cqe_delayed : int;
  cqe_reaped : int;
  (* retry layer *)
  tracked : int;
  acked : int;
  timeouts : int;
  give_ups : int;
  (* server dedup *)
  dup_requests : int;
  puts_suppressed : int;
  (* degradation machinery *)
  pressure_demotions : int;
  oom_fallbacks : int;
  (* exactly-once witness: every put id applied exactly once, every
     tracked request either acked or (counted) given up *)
  exactly_once : bool;
}

(* Retry policy for the degradation runs: base RTO well above the healthy
   RTT (~20 us) but short enough that a quick-budget window still fits
   several attempts. *)
let reliab_config =
  {
    Net.Reliab.timeout_ns = 150_000;
    max_retries = 6;
    backoff = 1.6;
    jitter = 0.1;
    reap_period_ns = 400_000;
  }

(* Fault mix scaled by the headline loss rate: drops dominate; corruption,
   duplication and delay ride at a fifth of it; completion loss (the
   nastiest — it pins references) at a tenth, scoped to the server NIC. *)
let plan_for ~seed ~loss =
  let open Faults.Plan in
  let rules =
    if loss <= 0.0 then []
    else
      [
        { fault = Drop; schedule = Probability loss; scope = Anywhere };
        { fault = Corrupt; schedule = Probability (loss /. 5.); scope = Anywhere };
        {
          fault = Duplicate;
          schedule = Probability (loss /. 5.);
          scope = Anywhere;
        };
        {
          fault = Delay { extra_ns = 3_000 };
          schedule = Probability (loss /. 5.);
          scope = Anywhere;
        };
        { fault = Reorder; schedule = Probability (loss /. 10.); scope = Anywhere };
        {
          fault = Completion_loss;
          schedule = Probability (loss /. 10.);
          scope = Endpoint Apps.Rig.server_id;
        };
        {
          fault = Completion_delay { extra_ns = 20_000 };
          schedule = Probability (loss /. 5.);
          scope = Endpoint Apps.Rig.server_id;
        };
      ]
  in
  make ~seed rules

let run_point ~idx ~loss =
  let b = Util.budget () in
  (* Send/Cf_ptr counters are process-wide; snapshot for deltas. *)
  let demote0 = Cornflakes.Send.pressure_demotions () in
  let oom0 = Cornflakes.Cf_ptr.oom_fallbacks () in
  let rig = Apps.Rig.create () in
  let workload = Workload.Twitter.make () in
  let app =
    Apps.Kv_app.install rig ~backend:(Apps.Backend.cornflakes ()) ~workload
  in
  let dedup = Net.Dedup.create () in
  Apps.Kv_app.enable_resilience app ~dedup;
  let plan = plan_for ~seed:(Apps.Rig.default_seed () + idx) ~loss in
  let inj = Faults.Injector.create plan in
  if plan.Faults.Plan.rules <> [] then Apps.Rig.inject_faults rig inj;
  let reliab =
    Net.Reliab.create
      ~retry:(reliab_config, Sim.Rng.split rig.Apps.Rig.rng)
      rig.Apps.Rig.engine
  in
  Net.Reliab.set_reaper reliab (fun () -> ignore (Apps.Rig.reap_lost rig));
  let d = Kv_bench.driver app in
  let r =
    Loadgen.Driver.closed_loop ~reliab rig.Apps.Rig.engine
      ~clients:rig.Apps.Rig.clients ~server:Apps.Rig.server_id ~outstanding:4
      ~duration_ns:b.Util.fault_point_ns ~warmup_ns:b.Util.warmup_ns
      ~rng:rig.Apps.Rig.rng ~send:d.Util.send ~parse_id:d.Util.parse_id
  in
  (* Driver shutdown: reap any still-lost completions so their pinned
     references release, then drain what that unblocks. *)
  ignore (Apps.Rig.reap_lost rig);
  Sim.Engine.run_all rig.Apps.Rig.engine;
  let fab = rig.Apps.Rig.fabric in
  let server_nic = Net.Endpoint.nic rig.Apps.Rig.server_ep in
  let exactly_once =
    List.for_all (fun (_, n) -> n = 1) (Apps.Kv_app.put_apply_counts app)
    && Net.Reliab.outstanding reliab = 0
    && Net.Reliab.acked reliab + Net.Reliab.give_ups reliab
       = Net.Reliab.tracked reliab
  in
  let point =
    {
      loss;
      achieved_rps = r.Loadgen.Driver.achieved_rps;
      goodput_gbps = r.Loadgen.Driver.achieved_gbps;
      p50_ns = Loadgen.Driver.p50_ns r;
      p99_ns = Loadgen.Driver.p99_ns r;
      sent = r.Loadgen.Driver.sent;
      completed = r.Loadgen.Driver.completed;
      retransmits = r.Loadgen.Driver.retransmits;
      abandoned = r.Loadgen.Driver.abandoned;
      fab_dropped = Net.Fabric.dropped fab;
      drops_to_server = Net.Fabric.dropped_to fab ~dst:Apps.Rig.server_id;
      corrupted = Net.Fabric.corrupted fab;
      duplicated = Net.Fabric.duplicated fab;
      server_rx_dropped = Net.Endpoint.rx_dropped rig.Apps.Rig.server_ep;
      cqe_lost = Nic.Device.lost_completions server_nic;
      cqe_delayed = Nic.Device.delayed_completions server_nic;
      cqe_reaped = Nic.Device.reaped_completions server_nic;
      tracked = Net.Reliab.tracked reliab;
      acked = Net.Reliab.acked reliab;
      timeouts = Net.Reliab.timeouts reliab;
      give_ups = Net.Reliab.give_ups reliab;
      dup_requests = Net.Dedup.duplicates dedup;
      puts_suppressed = Apps.Kv_app.puts_suppressed app;
      pressure_demotions = Cornflakes.Send.pressure_demotions () - demote0;
      oom_fallbacks = Cornflakes.Cf_ptr.oom_fallbacks () - oom0;
      exactly_once;
    }
  in
  if Sanitizer.Refsan.is_enabled () then begin
    Sim.Engine.quiesce rig.Apps.Rig.engine;
    Sanitizer.Refsan.checkpoint ()
  end;
  point

let pct loss = Printf.sprintf "%.2f%%" (100.0 *. loss)

let print_points points =
  let t =
    Stats.Table.create ~title:"Faultline degradation curve (Twitter, closed loop)"
      ~columns:
        [
          "loss";
          "achieved krps";
          "goodput Gbps";
          "p50 us";
          "p99 us";
          "sent";
          "completed";
          "retrans";
          "abandoned";
        ]
  in
  List.iter
    (fun p ->
      Stats.Table.add_row t
        [
          pct p.loss;
          Util.krps p.achieved_rps;
          Util.gbps p.goodput_gbps;
          Printf.sprintf "%.1f" (float_of_int p.p50_ns /. 1e3);
          Printf.sprintf "%.1f" (float_of_int p.p99_ns /. 1e3);
          string_of_int p.sent;
          string_of_int p.completed;
          string_of_int p.retransmits;
          string_of_int p.abandoned;
        ])
    points;
  Stats.Table.print t;
  let c =
    Stats.Table.create ~title:"Resilience counters"
      ~columns:
        [
          "loss";
          "fab drops";
          "to-server";
          "corrupt";
          "dup'd";
          "rx-drop";
          "cqe lost";
          "cqe reaped";
          "timeouts";
          "give-ups";
          "dup reqs";
          "puts supp";
          "zc demote";
          "exactly-once";
        ]
  in
  List.iter
    (fun p ->
      Stats.Table.add_row c
        [
          pct p.loss;
          string_of_int p.fab_dropped;
          string_of_int p.drops_to_server;
          string_of_int p.corrupted;
          string_of_int p.duplicated;
          string_of_int p.server_rx_dropped;
          string_of_int p.cqe_lost;
          string_of_int p.cqe_reaped;
          string_of_int p.timeouts;
          string_of_int p.give_ups;
          string_of_int p.dup_requests;
          string_of_int p.puts_suppressed;
          string_of_int p.pressure_demotions;
          (if p.exactly_once then "yes" else "NO");
        ])
    points;
  Stats.Table.print c

let monotone points =
  let rec go = function
    | a :: (b :: _ as rest) -> a.achieved_rps >= b.achieved_rps && go rest
    | _ -> true
  in
  go points

let json_file = "BENCH_faults.json"

(* Deterministic artifact for the CI byte-identity gate: simulated metrics
   only, no wall-clock anywhere. *)
let write_json ~seed points =
  let oc = open_out json_file in
  Printf.fprintf oc "{\n  \"schema\": \"cornflakes-bench-faults/1\",\n";
  Printf.fprintf oc "  \"seed\": %d,\n" seed;
  Printf.fprintf oc "  \"monotone\": %b,\n" (monotone points);
  Printf.fprintf oc "  \"points\": [\n";
  let n = List.length points in
  List.iteri
    (fun i p ->
      Printf.fprintf oc
        "    {\"loss\": %.4f, \"achieved_rps\": %.1f, \"goodput_gbps\": \
         %.4f, \"p50_ns\": %d, \"p99_ns\": %d, \"sent\": %d, \"completed\": \
         %d, \"retransmits\": %d, \"abandoned\": %d, \"fabric_dropped\": %d, \
         \"drops_to_server\": %d, \"corrupted\": %d, \"duplicated\": %d, \
         \"rx_dropped\": %d, \"cqe_lost\": %d, \"cqe_delayed\": %d, \
         \"cqe_reaped\": %d, \"tracked\": %d, \"acked\": %d, \"timeouts\": \
         %d, \"give_ups\": %d, \"dup_requests\": %d, \"puts_suppressed\": \
         %d, \"pressure_demotions\": %d, \"oom_fallbacks\": %d, \
         \"exactly_once\": %b}%s\n"
        p.loss p.achieved_rps p.goodput_gbps p.p50_ns p.p99_ns p.sent
        p.completed p.retransmits p.abandoned p.fab_dropped p.drops_to_server
        p.corrupted p.duplicated p.server_rx_dropped p.cqe_lost p.cqe_delayed
        p.cqe_reaped p.tracked p.acked p.timeouts p.give_ups p.dup_requests
        p.puts_suppressed p.pressure_demotions p.oom_fallbacks p.exactly_once
        (if i = n - 1 then "" else ","))
    points;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n" json_file

let run () =
  let b = Util.budget () in
  let points =
    Util.par_map
      (fun (idx, loss) -> run_point ~idx ~loss)
      (List.mapi (fun idx loss -> (idx, loss)) b.Util.fault_loss_rates)
  in
  print_points points;
  Printf.printf "goodput monotone non-increasing with loss: %s\n"
    (if monotone points then "OK" else "VIOLATED");
  Printf.printf "exactly-once under every plan: %s\n"
    (if List.for_all (fun p -> p.exactly_once) points then "OK" else "VIOLATED");
  write_json ~seed:(Apps.Rig.default_seed ()) points

(* --- CLI replay --------------------------------------------------------- *)

(* Short fixed scenario for `cornflakes faults --replay`: run the given
   plan against a rig seeded from the plan seed and summarise every
   counter. Fully deterministic — the CLI runs it twice and checks the
   summaries are identical. *)
let replay_summary ~plan =
  let buf = Buffer.create 512 in
  let rig = Apps.Rig.create ~seed:plan.Faults.Plan.seed () in
  let app =
    Apps.Kv_app.install rig ~backend:(Apps.Backend.cornflakes ())
      ~workload:(Workload.Twitter.make ())
  in
  let dedup = Net.Dedup.create () in
  Apps.Kv_app.enable_resilience app ~dedup;
  let inj = Faults.Injector.create plan in
  Apps.Rig.inject_faults rig inj;
  let reliab =
    Net.Reliab.create
      ~retry:(reliab_config, Sim.Rng.split rig.Apps.Rig.rng)
      rig.Apps.Rig.engine
  in
  Net.Reliab.set_reaper reliab (fun () -> ignore (Apps.Rig.reap_lost rig));
  let d = Kv_bench.driver app in
  let r =
    Loadgen.Driver.closed_loop ~reliab rig.Apps.Rig.engine
      ~clients:rig.Apps.Rig.clients ~server:Apps.Rig.server_id ~outstanding:2
      ~duration_ns:1_500_000 ~warmup_ns:200_000 ~rng:rig.Apps.Rig.rng
      ~send:d.Util.send ~parse_id:d.Util.parse_id
  in
  ignore (Apps.Rig.reap_lost rig);
  Sim.Engine.run_all rig.Apps.Rig.engine;
  Buffer.add_string buf
    (Printf.sprintf "sent=%d completed=%d retransmits=%d abandoned=%d\n"
       r.Loadgen.Driver.sent r.Loadgen.Driver.completed
       r.Loadgen.Driver.retransmits r.Loadgen.Driver.abandoned);
  let fab = rig.Apps.Rig.fabric in
  Buffer.add_string buf
    (Printf.sprintf
       "fabric: dropped=%d corrupted=%d duplicated=%d delayed=%d reordered=%d\n"
       (Net.Fabric.dropped fab) (Net.Fabric.corrupted fab)
       (Net.Fabric.duplicated fab) (Net.Fabric.delayed fab)
       (Net.Fabric.reordered fab));
  let nic = Net.Endpoint.nic rig.Apps.Rig.server_ep in
  Buffer.add_string buf
    (Printf.sprintf "server nic: cqe lost=%d delayed=%d reaped=%d\n"
       (Nic.Device.lost_completions nic)
       (Nic.Device.delayed_completions nic)
       (Nic.Device.reaped_completions nic));
  Buffer.add_string buf
    (Printf.sprintf
       "reliab: tracked=%d acked=%d retries=%d timeouts=%d give_ups=%d\n"
       (Net.Reliab.tracked reliab) (Net.Reliab.acked reliab)
       (Net.Reliab.retries reliab) (Net.Reliab.timeouts reliab)
       (Net.Reliab.give_ups reliab));
  Buffer.add_string buf
    (Printf.sprintf "dedup: distinct=%d duplicates=%d puts_suppressed=%d\n"
       (Net.Dedup.distinct dedup) (Net.Dedup.duplicates dedup)
       (Apps.Kv_app.puts_suppressed app));
  List.iter
    (fun (rule, seen, fired) ->
      Buffer.add_string buf
        (Printf.sprintf "rule [%s]: seen=%d fired=%d\n" rule seen fired))
    (Faults.Injector.counters inj);
  Buffer.contents buf
