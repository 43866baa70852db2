(* Tests for the parallel map and the determinism contract of
   the parallel experiment harness: `--jobs N` must be byte-identical to
   serial execution. *)

(* --- Pool semantics ----------------------------------------------------- *)

let test_map_preserves_order () =
  let input = Array.init 97 Fun.id in
  let expect = Array.map (fun i -> (i * i) + 1) input in
  let got = Par.Pool.map ~jobs:4 (fun i -> (i * i) + 1) input in
  Alcotest.(check (array int)) "parallel map = serial map" expect got

let test_map_uneven_tasks () =
  (* Wildly uneven task costs: the other domains keep claiming indices
     while one task runs long; order must still hold. *)
  let input = Array.init 16 Fun.id in
  let f i =
    let spins = if i = 0 then 2_000_000 else 100 in
    let acc = ref 0 in
    for k = 1 to spins do
      acc := !acc + (k land 7)
    done;
    (i, !acc land 1)
  in
  let expect = Array.map f input in
  let got = Par.Pool.map ~jobs:4 f input in
  Alcotest.(check (array (pair int int))) "uneven tasks keep order" expect got

exception Boom of int

let test_map_reraises_exception () =
  (* Two tasks fail; the lowest index wins, as in a serial map, whichever
     domain finishes first. *)
  let raised =
    try
      ignore
        (Par.Pool.map ~jobs:3
           (fun i -> if i = 5 || i = 9 then raise (Boom i) else i)
           (Array.init 12 Fun.id));
      false
    with Boom 5 -> true
  in
  Alcotest.(check bool) "task exception reaches the submitter" true raised

let test_nested_map_degrades_serial () =
  (* A task calling map runs the inner batch inline on its worker. *)
  let got =
    Par.Pool.map ~jobs:2
      (fun i ->
        Array.to_list (Par.Pool.map ~jobs:2 (fun j -> (10 * i) + j) [| 0; 1; 2 |]))
      [| 1; 2; 3; 4 |]
  in
  let expect =
    [| [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ]; [ 40; 41; 42 ] |]
  in
  Alcotest.(check (array (list int))) "nested map" expect got

let test_default_jobs_roundtrip () =
  let before = Par.Pool.default_jobs () in
  Par.Pool.set_default_jobs 7;
  Alcotest.(check int) "set/get" 7 (Par.Pool.default_jobs ());
  Par.Pool.set_default_jobs before;
  Alcotest.check_raises "jobs < 1 rejected"
    (Invalid_argument "Par.Pool.set_default_jobs: jobs < 1") (fun () ->
      Par.Pool.set_default_jobs 0)

let test_map_more_jobs_than_tasks () =
  (* Only [n] domains spawn; every slot still lands in order. *)
  let got = Par.Pool.map ~jobs:8 (fun i -> i * 3) [| 0; 1; 2 |] in
  Alcotest.(check (array int)) "jobs > n keeps order" [| 0; 3; 6 |] got

(* --- RefSan domain isolation ------------------------------------------- *)

let test_refsan_ledger_is_domain_local () =
  (* Two domains run concurrently under the sanitizer: one deliberately
     leaks a pinned buffer, the other behaves. Each domain's ledger must
     see only its own simulation — the clean domain reports zero leaks no
     matter what its neighbour did. *)
  let was = Sanitizer.Refsan.is_enabled () in
  Sanitizer.Refsan.set_enabled true;
  let leaky =
    Domain.spawn (fun () ->
        let space = Mem.Addr_space.create () in
        let pool =
          Mem.Pinned.Pool.create space ~name:"iso-leaky" ~classes:[ (256, 4) ]
        in
        let buf = Mem.Pinned.Buf.alloc ~site:"test.leak" pool ~len:64 in
        ignore (Sys.opaque_identity buf);
        (* deliberately never released *)
        let n = List.length (Sanitizer.Refsan.leaks ()) in
        Sanitizer.Refsan.reset ();
        n)
  in
  let clean =
    Domain.spawn (fun () ->
        let space = Mem.Addr_space.create () in
        let pool =
          Mem.Pinned.Pool.create space ~name:"iso-clean" ~classes:[ (256, 4) ]
        in
        for _ = 1 to 50 do
          let buf = Mem.Pinned.Buf.alloc ~site:"test.clean" pool ~len:64 in
          Mem.Pinned.Buf.decr_ref ~site:"test.clean" buf
        done;
        let n = List.length (Sanitizer.Refsan.leaks ()) in
        Sanitizer.Refsan.reset ();
        n)
  in
  let leaked = Domain.join leaky in
  let clean_leaks = Domain.join clean in
  Sanitizer.Refsan.set_enabled was;
  Alcotest.(check int) "leaky domain sees its leak" 1 leaked;
  Alcotest.(check int) "clean domain ledger untouched" 0 clean_leaks

let test_task_leak_reaches_submitter_total () =
  (* A leak in a worker's ledger reaches the process totals only through
     the per-task checkpoint: without it the worker domain exits with the
     finding still in its domain-local ledger. *)
  let was = Sanitizer.Refsan.is_enabled () in
  Sanitizer.Refsan.set_enabled true;
  let before = Sanitizer.Refsan.total_leaks () in
  let held =
    Par.Pool.map ~jobs:2
      (fun leak ->
        let space = Mem.Addr_space.create () in
        let pool =
          Mem.Pinned.Pool.create space ~name:"par-task" ~classes:[ (256, 4) ]
        in
        let buf = Mem.Pinned.Buf.alloc ~site:"test.par_leak" pool ~len:64 in
        (* The leaky task never releases its buffer. *)
        if not leak then Mem.Pinned.Buf.decr_ref ~site:"test.par_leak" buf;
        leak)
      [| true; false |]
  in
  let after = Sanitizer.Refsan.total_leaks () in
  Sanitizer.Refsan.set_enabled was;
  Alcotest.(check (array bool)) "results" [| true; false |] held;
  Alcotest.(check int) "one leak folded into the totals" 1 (after - before)

(* --- Byte-identical artifacts: fig3 at --jobs 1 vs --jobs 4 ------------- *)

let capture_stdout f =
  let saved = Unix.dup Unix.stdout in
  let tmp = Filename.temp_file "cf_par" ".out" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  let ic = open_in_bin tmp in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Sys.remove tmp;
  s

let run_fig3 ~jobs =
  let entry =
    match Experiments.Registry.find "fig3" with
    | Some e -> e
    | None -> Alcotest.fail "fig3 missing from the registry"
  in
  Experiments.Util.set_quick true;
  Par.Pool.set_default_jobs jobs;
  Fun.protect
    ~finally:(fun () ->
      Par.Pool.set_default_jobs 1;
      Experiments.Util.set_quick false)
    (fun () -> capture_stdout entry.Experiments.Registry.run)

let test_fig3_jobs_byte_identical () =
  let serial = run_fig3 ~jobs:1 in
  let parallel = run_fig3 ~jobs:4 in
  Alcotest.(check bool) "fig3 produced output" true (String.length serial > 0);
  Alcotest.(check string) "--jobs 4 byte-identical to --jobs 1" serial parallel

(* --- Rng job-split streams --------------------------------------------- *)

let rng_streams_distinct_states =
  QCheck.Test.make ~name:"rng stream states never collide" ~count:500
    QCheck.(triple small_nat small_nat small_nat)
    (fun (seed, i, dj) ->
      let j = i + 1 + dj in
      Sim.Rng.stream_seed ~seed ~index:i <> Sim.Rng.stream_seed ~seed ~index:j)

let rng_streams_diverge =
  QCheck.Test.make ~name:"rng stream outputs diverge within 64 draws" ~count:200
    QCheck.(triple small_nat small_nat small_nat)
    (fun (seed, i, dj) ->
      let j = i + 1 + dj in
      let a = Sim.Rng.stream ~seed ~index:i
      and b = Sim.Rng.stream ~seed ~index:j in
      let differs = ref false in
      for _ = 1 to 64 do
        if Sim.Rng.int a 1_000_000_007 <> Sim.Rng.int b 1_000_000_007 then
          differs := true
      done;
      !differs)

let suite =
  [
    Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
    Alcotest.test_case "map with uneven tasks" `Quick test_map_uneven_tasks;
    Alcotest.test_case "map re-raises task exception" `Quick
      test_map_reraises_exception;
    Alcotest.test_case "nested map degrades serial" `Quick
      test_nested_map_degrades_serial;
    Alcotest.test_case "default jobs roundtrip" `Quick test_default_jobs_roundtrip;
    Alcotest.test_case "map with more jobs than tasks" `Quick
      test_map_more_jobs_than_tasks;
    Alcotest.test_case "refsan ledger is domain-local" `Quick
      test_refsan_ledger_is_domain_local;
    Alcotest.test_case "fig3 --jobs 4 byte-identical" `Slow
      test_fig3_jobs_byte_identical;
    Alcotest.test_case "task leak reaches the submitter's totals" `Quick
      test_task_leak_reaches_submitter_total;
    QCheck_alcotest.to_alcotest rng_streams_distinct_states;
    QCheck_alcotest.to_alcotest rng_streams_diverge;
  ]
