(* End-to-end tests of the applications over the full stack: KV server with
   every backend, echo server, the load drivers, and the server harness. *)

let small_ycsb () = Workload.Ycsb.make ~n_keys:512 ~entries:2 ~entry_size:600 ()

let run_kv backend ~requests =
  let rig = Apps.Rig.create ~n_clients:4 () in
  let app = Apps.Kv_app.install rig ~backend ~workload:(small_ycsb ()) in
  let send ep ~dst ~id = Apps.Kv_app.send_next app ep ~dst ~id in
  let parse_id = Some (fun buf -> Apps.Kv_app.parse_id app buf) in
  let r =
    Loadgen.Driver.closed_loop rig.Apps.Rig.engine ~clients:rig.Apps.Rig.clients
      ~server:Apps.Rig.server_id ~outstanding:2
      ~duration_ns:(requests * 2_000)
      ~warmup_ns:0 ~rng:rig.Apps.Rig.rng ~send ~parse_id
  in
  (rig, r)

let test_kv_all_backends_serve () =
  List.iter
    (fun backend ->
      let rig, r = run_kv backend ~requests:500 in
      Alcotest.(check bool)
        (backend.Apps.Backend.name ^ " completed requests")
        true
        (r.Loadgen.Driver.completed > 100);
      Alcotest.(check int)
        (backend.Apps.Backend.name ^ " no drops")
        0
        (Loadgen.Server.dropped rig.Apps.Rig.server))
    Apps.Backend.all

let test_kv_responses_carry_values () =
  (* Direct check: one get returns the stored bytes through the whole
     stack, for each backend. *)
  List.iter
    (fun backend ->
      let rig = Apps.Rig.create ~n_clients:1 () in
      let wl = small_ycsb () in
      let app = Apps.Kv_app.install rig ~backend ~workload:wl in
      let client = List.hd rig.Apps.Rig.clients in
      let got = ref None in
      Net.Transport.set_rx client (fun ~src:_ buf ->
          let msg = backend.Apps.Backend.recv client Apps.Proto.resp buf in
          got := Some (Wire.Dyn.get_list msg "vals" |> List.length);
          Wire.Dyn.release msg;
          Mem.Pinned.Buf.decr_ref buf);
      let op =
        Workload.Spec.Get { keys = [ Printf.sprintf "user%026d" 1 ] }
      in
      Apps.Kv_app.send_op app op client ~dst:Apps.Rig.server_id ~id:7;
      Sim.Engine.run_all rig.Apps.Rig.engine;
      Alcotest.(check (option int))
        (backend.Apps.Backend.name ^ " two values")
        (Some 2) !got)
    Apps.Backend.all

let test_kv_put_then_get () =
  let backend = Apps.Backend.cornflakes () in
  let rig = Apps.Rig.create ~n_clients:1 () in
  let wl = Workload.Twitter.make ~n_keys:256 () in
  let app = Apps.Kv_app.install rig ~backend ~workload:wl in
  let client = List.hd rig.Apps.Rig.clients in
  let key = "tw:0000000000000005" in
  Apps.Kv_app.send_op app
    (Workload.Spec.Put { key; sizes = [ 700 ] })
    client ~dst:Apps.Rig.server_id ~id:1;
  Sim.Engine.run_all rig.Apps.Rig.engine;
  (match Kvstore.Store.get (Apps.Kv_app.store app) ~key with
  | Some v -> Alcotest.(check int) "new size" 700 (Kvstore.Store.value_len v)
  | None -> Alcotest.fail "key vanished");
  (* And the new value is served. *)
  let got = ref 0 in
  Net.Transport.set_rx client (fun ~src:_ buf ->
      let msg = backend.Apps.Backend.recv client Apps.Proto.resp buf in
      (match Wire.Dyn.get_list msg "vals" with
      | [ Wire.Dyn.Payload p ] -> got := Wire.Payload.len p
      | _ -> ());
      Wire.Dyn.release msg;
      Mem.Pinned.Buf.decr_ref buf);
  Apps.Kv_app.send_op app
    (Workload.Spec.Get { keys = [ key ] })
    client ~dst:Apps.Rig.server_id ~id:2;
  Sim.Engine.run_all rig.Apps.Rig.engine;
  Alcotest.(check int) "served updated value" 700 !got

let test_kv_get_miss_keeps_positions () =
  (* A missed key answers an empty value in its slot, so a multi-get's
     values stay aligned with its keys. *)
  let backend = Apps.Backend.cornflakes () in
  let rig = Apps.Rig.create ~n_clients:1 () in
  let app =
    Apps.Kv_app.install rig ~backend ~workload:(Workload.Twitter.make ~n_keys:256 ())
  in
  let client = List.hd rig.Apps.Rig.clients in
  let got = ref [] in
  Net.Transport.set_rx client (fun ~src:_ buf ->
      let msg = backend.Apps.Backend.recv client Apps.Proto.resp buf in
      got :=
        List.filter_map
          (function Wire.Dyn.Payload p -> Some (Wire.Payload.len p) | _ -> None)
          (Wire.Dyn.get_list msg "vals");
      Wire.Dyn.release msg;
      Mem.Pinned.Buf.decr_ref buf);
  Apps.Kv_app.send_op app
    (Workload.Spec.Get { keys = [ "tw:no-such-key"; "tw:0000000000000005" ] })
    client ~dst:Apps.Rig.server_id ~id:3;
  Sim.Engine.run_all rig.Apps.Rig.engine;
  match !got with
  | [ 0; n ] when n > 0 -> ()
  | lens ->
      Alcotest.failf "expected [0; n > 0], got [%s]"
        (String.concat "; " (List.map string_of_int lens))

let test_open_loop_latency_reasonable () =
  let backend = Apps.Backend.cornflakes () in
  let rig = Apps.Rig.create ~n_clients:4 () in
  let app = Apps.Kv_app.install rig ~backend ~workload:(small_ycsb ()) in
  let send ep ~dst ~id = Apps.Kv_app.send_next app ep ~dst ~id in
  let parse_id = Some (fun buf -> Apps.Kv_app.parse_id app buf) in
  let r =
    Loadgen.Driver.open_loop rig.Apps.Rig.engine ~clients:rig.Apps.Rig.clients
      ~server:Apps.Rig.server_id ~rate_rps:50_000.0 ~duration_ns:5_000_000
      ~warmup_ns:1_000_000 ~rng:rig.Apps.Rig.rng ~send ~parse_id
  in
  (* 50 krps is far below capacity: achieved ~ offered, latency ~ RTT. *)
  Alcotest.(check bool) "achieved close to offered" true
    (r.Loadgen.Driver.achieved_rps >= 0.85 *. r.Loadgen.Driver.offered_rps);
  let p50 = Loadgen.Driver.p50_ns r in
  Alcotest.(check bool)
    (Printf.sprintf "p50 %d ns sane" p50)
    true
    (p50 > 2_000 && p50 < 30_000)

let test_open_loop_overload_detected () =
  let backend = Apps.Backend.protobuf in
  let rig = Apps.Rig.create ~n_clients:4 () in
  let app = Apps.Kv_app.install rig ~backend ~workload:(small_ycsb ()) in
  let send ep ~dst ~id = Apps.Kv_app.send_next app ep ~dst ~id in
  let parse_id = Some (fun buf -> Apps.Kv_app.parse_id app buf) in
  let r =
    Loadgen.Driver.open_loop rig.Apps.Rig.engine ~clients:rig.Apps.Rig.clients
      ~server:Apps.Rig.server_id ~rate_rps:20_000_000.0 ~duration_ns:3_000_000
      ~warmup_ns:500_000 ~rng:rig.Apps.Rig.rng ~send ~parse_id
  in
  (* 20 Mrps is far beyond a single core: achieved load must saturate well
     below offered. *)
  Alcotest.(check bool) "saturates" true
    (r.Loadgen.Driver.achieved_rps < 0.5 *. r.Loadgen.Driver.offered_rps)

let test_echo_modes_roundtrip () =
  List.iter
    (fun mode ->
      let rig = Apps.Rig.create ~n_clients:2 () in
      let app = Apps.Echo_app.install rig mode in
      let send ep ~dst ~id =
        Apps.Echo_app.send_request app ~sizes:[ 1024; 512 ] ep ~dst ~id
      in
      let parse_id = Apps.Echo_app.parse_id app in
      let r =
        Loadgen.Driver.closed_loop rig.Apps.Rig.engine
          ~clients:rig.Apps.Rig.clients ~server:Apps.Rig.server_id
          ~outstanding:2 ~duration_ns:1_000_000 ~warmup_ns:0
          ~rng:rig.Apps.Rig.rng ~send ~parse_id
      in
      Alcotest.(check bool)
        (Apps.Echo_app.mode_name mode ^ " echoes")
        true
        (r.Loadgen.Driver.completed > 20))
    [
      Apps.Echo_app.No_serialization;
      Apps.Echo_app.Zero_copy_raw;
      Apps.Echo_app.Zero_copy_safe;
      Apps.Echo_app.One_copy;
      Apps.Echo_app.Two_copy;
      Apps.Echo_app.Lib Apps.Backend.protobuf;
      Apps.Echo_app.Lib (Apps.Backend.cornflakes ());
    ]

let test_no_buffer_leaks_across_requests () =
  (* After a run drains, the only live buffers are the store's values. *)
  let backend = Apps.Backend.cornflakes () in
  let rig, _r = run_kv backend ~requests:300 in
  let live_total =
    List.fold_left
      (fun acc p -> acc + Mem.Pinned.Pool.live p)
      0
      (Mem.Registry.pools rig.Apps.Rig.registry)
  in
  (* 512 keys x 2 buffers (plus the TCP-free rig has no other holders). *)
  Alcotest.(check int) "only store values live" 1024 live_total

let test_server_queue_drops_under_burst () =
  let rig = Apps.Rig.create ~n_clients:1 () in
  let app =
    Apps.Kv_app.install rig ~backend:Apps.Backend.protobuf
      ~workload:(small_ycsb ())
  in
  let client = List.hd rig.Apps.Rig.clients in
  (* Fire a burst at ~6.6 Mrps — far beyond one core — so the server's
     bounded queue must shed load. *)
  for id = 1 to 12_000 do
    Sim.Engine.schedule rig.Apps.Rig.engine ~after:(id * 150) (fun () ->
        Apps.Kv_app.send_op app
          (Workload.Spec.Get { keys = [ Printf.sprintf "user%026d" 1 ] })
          client ~dst:Apps.Rig.server_id ~id)
  done;
  Sim.Engine.run_all rig.Apps.Rig.engine;
  Alcotest.(check bool) "some dropped" true
    (Loadgen.Server.dropped rig.Apps.Rig.server > 0
    || Net.Endpoint.rx_dropped rig.Apps.Rig.server_ep > 0
    || Net.Fabric.dropped rig.Apps.Rig.fabric > 0);
  Alcotest.(check bool) "most served" true
    (Loadgen.Server.served rig.Apps.Rig.server > 2_000)

(* The client's reply-id read agrees with the full decode, for every
   backend: over random [Resp] replies (id absent, 0, 2^62-1 or a u64 with
   bit 63 set; 0-8 values of 0-9000 B) [id_reader] returns what [recv] +
   [get_int] returns, -1 when the id is absent, and leaves the frame's
   refcount as it found it. The server builds each reply as the kv server
   does, wrapping pinned values through the backend, so Cornflakes sends
   large values zero-copy. One TCP rig per backend, reused across cases:
   8 values of 9000 B exceed a UDP datagram. *)
let id_rigs = Hashtbl.create 4

let id_rig (backend : Apps.Backend.t) =
  match Hashtbl.find_opt id_rigs backend.Apps.Backend.name with
  | Some r -> r
  | None ->
      let rig = Apps.Rig.create ~n_clients:1 ~transport:`Tcp () in
      let pool = Apps.Rig.data_pool rig ~name:"id-vals" ~classes:[ (16384, 64) ] in
      let client = List.hd rig.Apps.Rig.clients in
      let r = (rig, pool, client, backend.Apps.Backend.id_reader client) in
      Hashtbl.replace id_rigs backend.Apps.Backend.name r;
      r

(* The copying backends stage a whole reply in one TX buffer, whose
   largest class is 16 KiB: keep the values that fit in 15000 B. *)
let staged_sizes (backend : Apps.Backend.t) sizes =
  if backend.Apps.Backend.name = "cornflakes" then sizes
  else
    let rec fit total = function
      | n :: rest when total + n <= 15_000 -> n :: fit (total + n) rest
      | _ -> []
    in
    fit 0 sizes

let reply_id_of (backend : Apps.Backend.t) ~id ~sizes =
  let rig, pool, client, id_reader = id_rig backend in
  let tr = rig.Apps.Rig.server_tr in
  let msg = Wire.Dyn.create Apps.Proto.resp in
  Option.iter (Wire.Dyn.set_int msg "id") id;
  let values =
    List.map
      (fun n ->
        let b = Mem.Pinned.Buf.alloc pool ~len:(max 1 n) in
        Mem.Pinned.Buf.fill b (String.make n 'v');
        let b = if n = 0 then Mem.Pinned.Buf.sub b ~off:0 ~len:0 else b in
        Wire.Dyn.append msg "vals"
          (Wire.Dyn.Payload
             (backend.Apps.Backend.wrap tr (Mem.Pinned.Buf.view b)));
        b)
      (staged_sizes backend sizes)
  in
  let got = ref None in
  Net.Transport.set_rx client (fun ~src:_ buf ->
      let before = Mem.Pinned.Buf.refcount buf in
      let read = id_reader buf in
      let after = Mem.Pinned.Buf.refcount buf in
      let d = backend.Apps.Backend.recv client Apps.Proto.resp buf in
      let decoded =
        match Wire.Dyn.get_int d "id" with
        | Some v -> Int64.to_int v
        | None -> -1
      in
      Wire.Dyn.release d;
      Mem.Arena.reset (Net.Transport.arena client);
      Mem.Pinned.Buf.decr_ref buf;
      got := Some (read, decoded, before, after));
  backend.Apps.Backend.send tr ~dst:100 msg;
  Mem.Arena.reset (Net.Transport.arena tr);
  List.iter (fun b -> Mem.Pinned.Buf.decr_ref b) values;
  Sim.Engine.run_all rig.Apps.Rig.engine;
  match !got with
  | Some r -> r
  | None -> Alcotest.failf "%s: reply not delivered" backend.Apps.Backend.name

let qcheck_id_reader_agrees =
  let reply =
    QCheck.(
      triple (int_bound 3) int64
        (list_of_size Gen.(int_bound 8) (int_bound 9000)))
  in
  QCheck.Test.make ~name:"id_reader agrees with recv for every backend"
    ~count:40 reply (fun (kind, hi, sizes) ->
      let id =
        match kind with
        | 0 -> None
        | 1 -> Some 0L
        | 2 -> Some (Int64.of_int max_int)
        | _ -> Some (Int64.logor hi Int64.min_int)
      in
      List.iter
        (fun backend ->
          let name = backend.Apps.Backend.name in
          let read, decoded, before, after = reply_id_of backend ~id ~sizes in
          let want =
            match id with Some v -> Int64.to_int v | None -> -1
          in
          if read <> decoded || read <> want then
            QCheck.Test.fail_reportf "%s: id_reader %d, recv %d, sent %d" name
              read decoded want;
          if before <> after then
            QCheck.Test.fail_reportf "%s: refcount %d -> %d across id_reader"
              name before after)
        Apps.Backend.all;
      true)

let suite =
  [
    Alcotest.test_case "kv all backends serve" `Slow test_kv_all_backends_serve;
    Alcotest.test_case "kv responses carry values" `Quick
      test_kv_responses_carry_values;
    Alcotest.test_case "kv put then get" `Quick test_kv_put_then_get;
    Alcotest.test_case "kv get miss keeps positions" `Quick
      test_kv_get_miss_keeps_positions;
    Alcotest.test_case "open loop latency" `Quick test_open_loop_latency_reasonable;
    Alcotest.test_case "open loop overload" `Quick test_open_loop_overload_detected;
    Alcotest.test_case "echo modes roundtrip" `Slow test_echo_modes_roundtrip;
    Alcotest.test_case "no buffer leaks" `Quick test_no_buffer_leaks_across_requests;
    Alcotest.test_case "queue drops under burst" `Quick
      test_server_queue_drops_under_burst;
    QCheck_alcotest.to_alcotest qcheck_id_reader_agrees;
  ]
