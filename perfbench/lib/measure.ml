(* Measurement windows on the simulated clock, with host-clock slices.

   A window is one open-loop drive at a fixed offered rate: Poisson
   arrivals for [duration_ns] of simulated time, of which the first
   [warmup_ns] are not measured, then a drain of the engine. While it runs
   a sampler event fires every [tick_ns] of simulated time and records
   the client-side backlog (requests issued but not yet answered) and the
   host time and answers since the previous tick, so host cost per
   request is available per slice of the window. The sampler only reads
   state, so it does not change what the simulation computes. *)

type window = {
  rate_rps : float;
  window_ns : int; (* measured part: duration - warmup *)
  lat : int array; (* sorted latencies of in-window requests, ns *)
  failed : int; (* in-window requests never answered *)
  unanswered : int; (* requests of the drive never answered *)
  in_window : int;
  done_by_end : int;
  resp_bytes : int;
  backlog_q2 : float; (* mean backlog over the 2nd quarter of the window *)
  backlog_q4 : float; (* ... and over the last quarter *)
  sent : int; (* every request of the drive, warm-up included *)
  cpu_ns : float; (* summed server-core simulated ns over the drive *)
  words : float; (* host minor words over the drive *)
  host_ns : int; (* host time of the drive *)
  slices : float list; (* host ns per answered request, one per tick *)
  pinned_peak : int; (* most pinned buffers live at any tick *)
  unacked_peak : int; (* most unacknowledged server TCP bytes at any tick *)
}

let sum_cpu_ns sut =
  List.fold_left (fun acc c -> acc +. Memmodel.Cpu.ns c) 0.0 (Sut.server_cpus sut)

let pinned_live sut =
  List.fold_left
    (fun acc p -> acc + Mem.Pinned.Pool.live p)
    0
    (Mem.Registry.pools sut.Sut.registry)

let unacked sut =
  List.fold_left (fun acc c -> acc + Tcp.Conn.unacked_bytes c) 0 (sut.Sut.tcp_conns ())

(* Fewer answers than this in a tick make too coarse a host slice. *)
let min_slice_answers = 200

let run ?(deep = false) sut (probe : Probe.t) ~rate_rps ~duration_ns ~warmup_ns
    ~tick_ns =
  let engine = sut.Sut.engine in
  let checks = probe.Probe.checks in
  let t0 = Sim.Engine.now engine in
  let warm_abs = t0 + warmup_ns and end_abs = t0 + duration_ns in
  probe.Probe.offset <- Checks.begin_window checks ~warm_abs ~end_abs;
  let sent0 = checks.Checks.sent in
  (* Requests an earlier lossy window never got answered stay outstanding. *)
  let lost0 = sent0 - checks.Checks.answered in
  let q2 = ref 0 and q2n = ref 0 and q4 = ref 0 and q4n = ref 0 in
  let slices = ref [] in
  let last_h = ref 0 and last_a = ref 0 in
  let pinned_peak = ref 0 and unacked_peak = ref 0 in
  let window = end_abs - warm_abs in
  let rec tick () =
    let now = Sim.Engine.now engine in
    let h = Clock.now_ns () and a = checks.Checks.answered in
    let da = a - !last_a in
    if da >= min_slice_answers then
      slices := float_of_int (h - !last_h) /. float_of_int da :: !slices;
    last_h := h;
    last_a := a;
    let backlog = checks.Checks.sent - a - lost0 in
    let pos = now - warm_abs in
    if pos >= window / 4 && pos < window / 2 then begin
      q2 := !q2 + backlog;
      incr q2n
    end
    else if pos >= 3 * window / 4 then begin
      q4 := !q4 + backlog;
      incr q4n
    end;
    if deep then begin
      pinned_peak := max !pinned_peak (pinned_live sut);
      unacked_peak := max !unacked_peak (unacked sut)
    end;
    if now + tick_ns <= end_abs then Sim.Engine.schedule engine ~after:tick_ns tick
  in
  let cpu0 = sum_cpu_ns sut in
  let w0 = Gc.minor_words () in
  let h0 = Clock.now_ns () in
  last_h := h0;
  last_a := checks.Checks.answered;
  Sim.Engine.schedule engine ~after:tick_ns tick;
  sut.Sut.drive ~rate_rps ~duration_ns ~warmup_ns;
  let host_ns = Clock.now_ns () - h0 in
  let words = Gc.minor_words () -. w0 in
  let mean s n = if n = 0 then 0.0 else float_of_int s /. float_of_int n in
  let unanswered, failed = Checks.window_unanswered checks in
  {
    rate_rps;
    window_ns = window;
    lat = Checks.window_latencies checks;
    failed;
    unanswered;
    in_window = checks.Checks.in_window;
    done_by_end = checks.Checks.done_by_end;
    resp_bytes = checks.Checks.resp_bytes;
    backlog_q2 = mean !q2 !q2n;
    backlog_q4 = mean !q4 !q4n;
    sent = checks.Checks.sent - sent0;
    cpu_ns = sum_cpu_ns sut -. cpu0;
    words;
    host_ns;
    slices = !slices;
    pinned_peak = !pinned_peak;
    unacked_peak = !unacked_peak;
  }

(* Nearest-rank percentile over answered samples plus [failed] requests,
   which rank above every sample (a failed request misses any limit).
   [infinity] when the rank lands on a failure. *)
let percentile w p =
  let n = Array.length w.lat + w.failed in
  if n = 0 then infinity
  else
    let rank = max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1) in
    if rank >= Array.length w.lat then infinity
    else float_of_int w.lat.(rank)

(* Samples strictly above the [p] percentile's rank. *)
let beyond w p =
  let n = Array.length w.lat + w.failed in
  n - int_of_float (Float.ceil (p *. float_of_int n))

let gbps w = float_of_int (w.resp_bytes * 8) /. float_of_int w.window_ns

(* A rate meets the limit when its p99 (failures included) is within
   [slo_ns], its backlog did not grow from mid-window to the end, and its
   completions kept up with its sends. *)
let meets w ~slo_ns =
  percentile w 0.99 <= float_of_int slo_ns
  && w.backlog_q4 <= (1.5 *. w.backlog_q2) +. 16.0
  && float_of_int w.done_by_end >= 0.97 *. float_of_int w.in_window

type search = { best : window option; probes : window list }

(* Highest offered rate that meets the limit: bracket geometrically from
   [start] in steps of [step], then bisect (geometrically) until the
   bracket is narrower than [resolution]. *)
let search ~probe ~start ~slo_ns ~step ~resolution ~max_probes =
  let probes = ref [] in
  let lo = ref None and hi = ref None in
  let try_rate r =
    let w = probe r in
    probes := w :: !probes;
    if meets w ~slo_ns then lo := Some w else hi := Some r
  in
  let rate = ref start in
  while (Option.is_none !lo || Option.is_none !hi) && List.length !probes < max_probes do
    try_rate !rate;
    rate :=
      match (!lo, !hi) with
      | Some w, None -> w.rate_rps *. step
      | None, Some h -> h /. step
      | _ -> !rate
  done;
  let narrow () =
    match (!lo, !hi) with
    | Some w, Some h -> h /. w.rate_rps > 1.0 +. resolution
    | _ -> false
  in
  while narrow () && List.length !probes < max_probes do
    match (!lo, !hi) with
    | Some w, Some h -> try_rate (sqrt (w.rate_rps *. h))
    | _ -> ()
  done;
  { best = !lo; probes = List.rev !probes }

(* [quantile l q], linear between order statistics (as
   [statistics.quantiles(..., method="inclusive")]). *)
let quantile l q =
  match l with
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile l 0.5

(* Host cost per request is read as the lower quartile of the per-slice
   values: other load on the host only ever slows a slice down, and in
   bursts, so the lower quartile moves with the code and much less with
   the neighbours than the median does. *)
let lower_quartile l = quantile l 0.25
