(* Properties of the benchmark itself: runs replay from their seed, the
   seed reaches the generated requests, and the output checks catch a
   corrupted response. *)

open Perfbench

(* --- same seed, same simulated results ----------------------------------- *)

let run_main args =
  let ic =
    Unix.open_process_args_in "../main.exe" (Array.of_list ("../main.exe" :: args))
  in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "main.exe %s failed:\n%s" (String.concat " " args) out);
  let lines = String.split_on_char '\n' (String.trim out) in
  List.nth lines (List.length lines - 1)

(* The raw text of metric [name]'s value in a result line. *)
let metric json name =
  let key = Printf.sprintf "%S: {\"value\": " name in
  let rec find i =
    if i + String.length key > String.length json then
      Alcotest.failf "metric %s missing from %s" name json
    else if String.sub json i (String.length key) = key then
      let j = i + String.length key in
      String.sub json j (String.index_from json j ',' - j)
    else find (i + 1)
  in
  find 0

let small_run seed =
  run_main
    [ "--workload"; "kv-twitter"; "--seed"; string_of_int seed; "--seconds";
      "0"; "--scale"; "0.05"; "--setup-repeats"; "1" ]

let deterministic_metrics =
  [ "sim_krps_at_slo"; "sim_gbps_at_slo"; "sim_p50_us.mid"; "sim_p99_us.mid";
    "sim_p50_us.high"; "sim_p99_us.high"; "sim_p999_us.high";
    "sim_cpu_ns_per_req"; "host_words_per_req" ]

let test_same_seed () =
  let a = small_run 7 and b = small_run 7 in
  List.iter
    (fun name ->
      Alcotest.(check string) name (metric a name) (metric b name))
    deterministic_metrics

(* --- the seed reaches the op stream ---------------------------------------- *)

let ops_of_seed seed =
  let ops = ref [] in
  let spec = Workload.Twitter.make () in
  let spec =
    {
      spec with
      Workload.Spec.next =
        (fun rng ->
          let op = spec.next rng in
          if List.length !ops < 500 then ops := op :: !ops;
          op);
    }
  in
  let probe = Probe.create () in
  let sut = Sut.kv ~kind:`Udp ~spec ~seed probe in
  ignore
    (Measure.run sut probe ~rate_rps:1e6 ~duration_ns:1_000_000 ~warmup_ns:0
       ~tick_ns:100_000
      : Measure.window);
  List.rev !ops

let test_seed_changes_ops () =
  let a = ops_of_seed 1 and b = ops_of_seed 2 and a' = ops_of_seed 1 in
  Alcotest.(check int) "ops recorded" 500 (List.length a);
  Alcotest.(check bool) "same seed, same ops" true (a = a');
  Alcotest.(check bool) "other seed, other ops" false (a = b)

(* --- a corrupted response is caught ---------------------------------------- *)

let checked_run ~corrupt =
  let probe = Probe.create ~every:1 () in
  let sut =
    Sut.kv ~kind:`Udp ~spec:(Workload.Twitter.make ()) ~seed:3 probe
  in
  let n = ref 0 in
  if corrupt then
    probe.Probe.checks.Checks.corrupt <-
      Some
        (fun buf ->
          incr n;
          let len = Mem.Pinned.Buf.len buf in
          if !n mod 10 = 0 && len > 200 then begin
            (* Flip the last byte: value data, not framing. *)
            let b = Mem.Pinned.Buf.backing buf in
            let i = Mem.Pinned.Buf.backing_off buf + len - 1 in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff))
          end);
  ignore
    (Measure.run sut probe ~rate_rps:1e6 ~duration_ns:2_000_000 ~warmup_ns:0
       ~tick_ns:100_000
      : Measure.window);
  probe.Probe.checks

let test_corruption_caught () =
  let clean = checked_run ~corrupt:false in
  Alcotest.(check bool) "gets were checked" true (clean.Checks.checked > 100);
  Alcotest.(check int) "clean run: no mismatch" 0 clean.Checks.mismatches;
  let bad = checked_run ~corrupt:true in
  Alcotest.(check bool) "corrupted run: mismatches found" true
    (bad.Checks.mismatches > 0);
  Alcotest.(check bool) "corrupted run fails the checks" true
    (Checks.violations bad > 0)

let () =
  Alcotest.run "perfbench"
    [
      ( "benchmark",
        [
          Alcotest.test_case "same seed, same sim metrics and words" `Quick
            test_same_seed;
          Alcotest.test_case "seed changes the op stream" `Quick
            test_seed_changes_ops;
          Alcotest.test_case "corrupted response caught" `Quick
            test_corruption_caught;
        ] );
    ]
