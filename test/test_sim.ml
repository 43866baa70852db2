(* Tests for the discrete-event engine, PRNG, and samplers. *)

let test_heap_ordering () =
  let h = Sim.Heap.create ~dummy:(-1) in
  let rng = Sim.Rng.create ~seed:42 in
  let n = 1000 in
  for i = 0 to n - 1 do
    Sim.Heap.push h ~time:(Sim.Rng.int rng 500) ~seq:i i
  done;
  Alcotest.(check int) "length" n (Sim.Heap.length h);
  let prev = ref (-1, -1) in
  for _ = 1 to n do
    match Sim.Heap.pop_min h with
    | None -> Alcotest.fail "heap empty too early"
    | Some (time, seq, _) ->
        let t, s = !prev in
        if time < t || (time = t && seq < s) then
          Alcotest.fail "heap order violated";
        prev := (time, seq)
  done;
  Alcotest.(check bool) "empty" true (Sim.Heap.is_empty h)

let test_heap_fifo_same_time () =
  let h = Sim.Heap.create ~dummy:(-1) in
  for i = 0 to 9 do
    Sim.Heap.push h ~time:7 ~seq:i i
  done;
  for i = 0 to 9 do
    match Sim.Heap.pop_min h with
    | Some (_, _, v) -> Alcotest.(check int) "fifo" i v
    | None -> Alcotest.fail "missing element"
  done

let test_engine_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~after:30 (fun () -> log := 3 :: !log);
  Sim.Engine.schedule e ~after:10 (fun () -> log := 1 :: !log);
  Sim.Engine.schedule e ~after:20 (fun () ->
      log := 2 :: !log;
      (* Events scheduled from within events still run in order. *)
      Sim.Engine.schedule e ~after:5 (fun () -> log := 25 :: !log));
  Sim.Engine.run_all e;
  Alcotest.(check (list int)) "order" [ 1; 2; 25; 3 ] (List.rev !log);
  Alcotest.(check int) "clock" 30 (Sim.Engine.now e)

let test_engine_until () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.schedule e ~after:100 (fun () -> incr fired);
  Sim.Engine.schedule e ~after:200 (fun () -> incr fired);
  Sim.Engine.run e ~until:150;
  Alcotest.(check int) "only first" 1 !fired;
  Alcotest.(check int) "clock at until" 150 (Sim.Engine.now e);
  Sim.Engine.run e ~until:300;
  Alcotest.(check int) "second fired" 2 !fired

let test_engine_rejects_past () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~after:10 (fun () -> ());
  Sim.Engine.run_all e;
  Alcotest.check_raises "past" (Invalid_argument
    "Engine.schedule_at: time 5 is before now 10")
    (fun () -> Sim.Engine.schedule_at e ~time:5 (fun () -> ()))

let test_rng_deterministic () =
  let a = Sim.Rng.create ~seed:7 and b = Sim.Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.next_int64 a)
      (Sim.Rng.next_int64 b)
  done

let test_rng_float_range () =
  let r = Sim.Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let f = Sim.Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of range"
  done

let test_rng_split_independent () =
  let a = Sim.Rng.create ~seed:7 in
  let b = Sim.Rng.split a in
  let xa = Sim.Rng.next_int64 a and xb = Sim.Rng.next_int64 b in
  Alcotest.(check bool) "different streams" true (not (Int64.equal xa xb))

let test_exponential_mean () =
  let r = Sim.Rng.create ~seed:11 in
  let n = 200_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Sim.Dist.exponential r ~mean:500.0
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 500.0) > 10.0 then
    Alcotest.failf "exponential mean %f too far from 500" mean

let test_zipf_bounds_and_skew () =
  let z = Sim.Dist.Zipf.create ~n:1000 ~s:0.99 in
  let r = Sim.Rng.create ~seed:5 in
  let counts = Array.make 1001 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let k = Sim.Dist.Zipf.sample z r in
    if k < 1 || k > 1000 then Alcotest.fail "zipf out of range";
    counts.(k) <- counts.(k) + 1
  done;
  (* Rank 1 should be far more popular than rank 100. *)
  Alcotest.(check bool) "rank1 > 10x rank100" true
    (counts.(1) > 10 * max 1 counts.(100));
  (* Rank 1 frequency for s=0.99, n=1000 is ~13%. *)
  let f1 = float_of_int counts.(1) /. float_of_int n in
  if f1 < 0.08 || f1 > 0.20 then Alcotest.failf "rank-1 frequency %f off" f1

let test_zipf_single () =
  let z = Sim.Dist.Zipf.create ~n:1 ~s:0.99 in
  let r = Sim.Rng.create ~seed:1 in
  for _ = 1 to 100 do
    Alcotest.(check int) "n=1" 1 (Sim.Dist.Zipf.sample z r)
  done

let test_discrete_sampler () =
  let d = Sim.Dist.Discrete.create [| ("a", 1.0); ("b", 3.0) |] in
  let r = Sim.Rng.create ~seed:9 in
  let a = ref 0 and b = ref 0 in
  for _ = 1 to 40_000 do
    match Sim.Dist.Discrete.sample d r with
    | "a" -> incr a
    | "b" -> incr b
    | _ -> Alcotest.fail "unexpected value"
  done;
  let ratio = float_of_int !b /. float_of_int !a in
  if ratio < 2.6 || ratio > 3.4 then Alcotest.failf "ratio %f off 3.0" ratio

let qcheck_heap_sorted =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list (pair small_nat small_nat))
    (fun pairs ->
      let h = Sim.Heap.create ~dummy:() in
      List.iteri (fun i (t, _) -> Sim.Heap.push h ~time:t ~seq:i ()) pairs;
      let rec drain last =
        match Sim.Heap.pop_min h with
        | None -> true
        | Some (t, _, ()) -> t >= last && drain t
      in
      drain min_int)

(* A fired event's closure (and everything it captured — frames, buffers)
   must not stay reachable from the queue. The schedule happens in its own
   frame so no stack slot keeps the bytes alive. *)
let[@inline never] schedule_capturing e =
  let b = Bytes.make 64 'x' in
  let w = Weak.create 1 in
  Weak.set w 0 (Some b);
  Sim.Engine.schedule e ~after:5 (fun () ->
      ignore (Sys.opaque_identity (Bytes.length b)));
  w

let test_engine_drops_fired_events () =
  let e = Sim.Engine.create () in
  let w = schedule_capturing e in
  Sim.Engine.run_all e;
  Gc.full_major ();
  Alcotest.(check bool) "fired closure collected" false (Weak.check w 0);
  (* The engine itself stays live across the collection. *)
  Alcotest.(check int) "queue empty" 0 (Sim.Engine.pending e)

(* Interleaved pushes and pops against a sorted reference list. [Pop_push k]
   pops through [pop_into] and, from inside its callback, pushes [k] more
   entries at the popped instant — what an event does when it schedules
   work for "now". Payloads are the sequence numbers. *)
type heap_op = Push of int | Pop | Pop_push of int

let heap_op_arb =
  let open QCheck in
  let gen =
    Gen.(
      frequency
        [
          (4, map (fun t -> Push t) (int_bound 20));
          (2, return Pop);
          (1, map (fun k -> Pop_push k) (int_bound 3));
        ])
  in
  let print = function
    | Push t -> Printf.sprintf "Push %d" t
    | Pop -> "Pop"
    | Pop_push k -> Printf.sprintf "Pop_push %d" k
  in
  list_of_size Gen.(int_bound 200) (make ~print gen)

let qcheck_heap_matches_reference =
  QCheck.Test.make ~name:"heap pop_into matches sorted reference" ~count:300
    heap_op_arb (fun ops ->
      let h = Sim.Heap.create ~dummy:(-1) in
      let model = ref [] and next = ref 0 in
      let push time =
        let seq = !next in
        incr next;
        Sim.Heap.push h ~time ~seq seq;
        model := List.merge compare [ (time, seq) ] !model
      in
      let pop extra =
        match !model with
        | [] -> not (Sim.Heap.pop_into h (fun _ _ -> ()))
        | expected :: rest ->
            model := rest;
            let got = ref (-1, -1) in
            let popped =
              Sim.Heap.pop_into h (fun time seq ->
                  got := (time, seq);
                  for _ = 1 to extra do
                    push time
                  done)
            in
            popped && !got = expected
      in
      let step = function
        | Push t ->
            push t;
            true
        | Pop -> pop 0
        | Pop_push k -> pop k
      in
      let rec drain () = !model = [] || (pop 0 && drain ()) in
      List.for_all step ops && drain () && Sim.Heap.is_empty h)

(* A channel's entries fire in push order, each in its own (time, seq)
   slot: a plain event scheduled between two pushes at the same instant
   fires between them. *)
let test_chan_fires_in_seq_slots () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let ch = Sim.Chan.create e ~dummy:"" in
  Sim.Chan.set_handler ch (fun n s -> log := Printf.sprintf "%s%d" s n :: !log);
  Sim.Chan.push ch ~time:10 1 "a";
  Sim.Engine.schedule_at e ~time:10 (fun () -> log := "b" :: !log);
  Sim.Chan.push ch ~time:10 2 "c";
  Sim.Engine.schedule_at e ~time:5 (fun () -> log := "early" :: !log);
  Sim.Chan.push ch ~time:30 3 "d";
  Alcotest.(check int) "pending" 3 (Sim.Chan.length ch);
  Sim.Engine.run_all e;
  Alcotest.(check (list string))
    "order" [ "early"; "a1"; "b"; "c2"; "d3" ] (List.rev !log);
  Alcotest.(check int) "drained" 0 (Sim.Chan.length ch)

let test_chan_rejects_earlier_push () =
  let e = Sim.Engine.create () in
  let ch = Sim.Chan.create e ~dummy:() in
  Sim.Chan.set_handler ch (fun _ () -> ());
  Sim.Chan.push ch ~time:20 0 ();
  Alcotest.check_raises "earlier push"
    (Invalid_argument "Chan.push: time 10 is before the previous push at 20")
    (fun () -> Sim.Chan.push ch ~time:10 0 ());
  (* The rejected push left nothing behind: one event, one entry. *)
  Alcotest.(check int) "one entry" 1 (Sim.Chan.length ch);
  Alcotest.(check int) "one event" 1 (Sim.Engine.pending e)

let suite =
  [
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap fifo at equal time" `Quick test_heap_fifo_same_time;
    Alcotest.test_case "engine event order" `Quick test_engine_order;
    Alcotest.test_case "engine run until" `Quick test_engine_until;
    Alcotest.test_case "engine rejects past" `Quick test_engine_rejects_past;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
    Alcotest.test_case "zipf bounds and skew" `Quick test_zipf_bounds_and_skew;
    Alcotest.test_case "zipf n=1" `Quick test_zipf_single;
    Alcotest.test_case "discrete sampler" `Quick test_discrete_sampler;
    QCheck_alcotest.to_alcotest qcheck_heap_sorted;
    QCheck_alcotest.to_alcotest qcheck_heap_matches_reference;
    Alcotest.test_case "engine drops fired events" `Quick
      test_engine_drops_fired_events;
    Alcotest.test_case "chan fires in seq slots" `Quick
      test_chan_fires_in_seq_slots;
    Alcotest.test_case "chan rejects earlier push" `Quick
      test_chan_rejects_earlier_push;
  ]
