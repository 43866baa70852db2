(* Tests for the replicated key-value store (nested-object application,
   paper §4). *)

let small_workload () = Workload.Ycsb.make ~n_keys:128 ~entries:1 ~entry_size:600 ()

let make ?(backups = 2) () =
  let rig = Apps.Rig.create ~n_clients:2 () in
  let cluster = Replication.Replicated_kv.create rig ~backups ~workload:(small_workload ()) in
  (rig, cluster)

let run_op rig cluster ?(id = 1) op =
  let client = List.hd rig.Apps.Rig.clients in
  let got = ref None in
  Net.Transport.set_rx client (fun ~src:_ buf ->
      got := Some (Replication.Replicated_kv.parse_id cluster buf);
      Mem.Pinned.Buf.decr_ref buf);
  Replication.Replicated_kv.send_op cluster op client ~dst:Apps.Rig.server_id ~id;
  Sim.Engine.run_all rig.Apps.Rig.engine;
  !got

let value_string store key =
  match Kvstore.Store.get store ~key with
  | Some v ->
      String.concat ""
        (List.map
           (fun b -> Mem.View.to_string (Mem.Pinned.Buf.view b))
           (Kvstore.Store.buffers v))
  | None -> "<missing>"

let test_put_replicates_to_all_backups () =
  let rig, cluster = make () in
  let key = "replicated-key" in
  (match run_op rig cluster ~id:7 (Workload.Spec.Put { key; sizes = [ 900 ] }) with
  | Some 7 -> ()
  | other -> Alcotest.failf "bad ack id %s" (match other with Some i -> string_of_int i | None -> "none"));
  Alcotest.(check int) "committed" 1 (Replication.Replicated_kv.committed cluster);
  let expect =
    value_string (Replication.Replicated_kv.primary_store cluster) key
  in
  Alcotest.(check int) "value size" 900 (String.length expect);
  List.iteri
    (fun i store ->
      Alcotest.(check string)
        (Printf.sprintf "backup %d converged" i)
        expect (value_string store key))
    (Replication.Replicated_kv.backup_stores cluster)

let test_ack_only_after_all_backups () =
  let rig, cluster = make ~backups:3 () in
  let client = List.hd rig.Apps.Rig.clients in
  let acked = ref false in
  Net.Transport.set_rx client (fun ~src:_ buf ->
      acked := true;
      Mem.Pinned.Buf.decr_ref buf);
  Replication.Replicated_kv.send_op cluster
    (Workload.Spec.Put { key = "k"; sizes = [ 100 ] })
    client ~dst:Apps.Rig.server_id ~id:1;
  (* Before the engine runs, nothing can have been acknowledged. *)
  Alcotest.(check bool) "not acked yet" false !acked;
  Sim.Engine.run_all rig.Apps.Rig.engine;
  Alcotest.(check bool) "acked after replication" true !acked;
  Alcotest.(check int) "committed once" 1
    (Replication.Replicated_kv.committed cluster)

(* Run one get and return the length of each value slot in the reply. *)
let get_value_lens rig ?(id = 2) op =
  let client = List.hd rig.Apps.Rig.clients in
  let lens = ref None in
  Net.Transport.set_rx client (fun ~src:_ buf ->
      let msg = Cornflakes.Send.deserialize Apps.Proto.schema Apps.Proto.resp buf in
      lens :=
        Some
          (List.filter_map
             (function Wire.Dyn.Payload p -> Some (Wire.Payload.len p) | _ -> None)
             (Wire.Dyn.get_list msg "vals"));
      Wire.Dyn.release msg;
      Mem.Pinned.Buf.decr_ref buf);
  op client ~dst:Apps.Rig.server_id ~id;
  Sim.Engine.run_all rig.Apps.Rig.engine;
  match !lens with Some l -> l | None -> Alcotest.fail "no reply"

let test_get_after_put_sees_new_value () =
  let rig, cluster = make () in
  let key = Printf.sprintf "user%026d" 1 in
  ignore (run_op rig cluster ~id:1 (Workload.Spec.Put { key; sizes = [ 800 ] }));
  Alcotest.(check (list int)) "read back updated size" [ 800 ]
    (get_value_lens rig
       (Replication.Replicated_kv.send_op cluster
          (Workload.Spec.Get { keys = [ key ] })))

(* Every key of a multi-get travels and gets its own value slot, in request
   order; a miss answers an empty value. *)
let test_multi_get_answers_every_key () =
  let rig = Apps.Rig.create ~n_clients:2 () in
  let workload =
    Workload.Ycsb.make ~n_keys:128 ~multiget:2 ~entries:1 ~entry_size:600 ()
  in
  let cluster = Replication.Replicated_kv.create rig ~backups:1 ~workload in
  Alcotest.(check (list int)) "one value per key" [ 600; 600 ]
    (get_value_lens rig (Replication.Replicated_kv.send_next cluster));
  Alcotest.(check (list int)) "miss keeps its slot" [ 0; 600 ]
    (get_value_lens rig ~id:3
       (Replication.Replicated_kv.send_op cluster
          (Workload.Spec.Get
             { keys = [ "absent-key"; Printf.sprintf "user%026d" 1 ] })))

let test_many_random_puts_converge () =
  let rig, cluster = make ~backups:2 () in
  let client = List.hd rig.Apps.Rig.clients in
  Net.Transport.set_rx client (fun ~src:_ buf -> Mem.Pinned.Buf.decr_ref buf);
  let rng = Sim.Rng.create ~seed:5 in
  let n = 60 in
  for id = 1 to n do
    let key = Printf.sprintf "user%026d" (1 + Sim.Rng.int rng 32) in
    let size = 50 + Sim.Rng.int rng 1500 in
    Sim.Engine.schedule rig.Apps.Rig.engine ~after:(id * 2_000) (fun () ->
        Replication.Replicated_kv.send_op cluster
          (Workload.Spec.Put { key; sizes = [ size ] })
          client ~dst:Apps.Rig.server_id ~id)
  done;
  Sim.Engine.run_all rig.Apps.Rig.engine;
  Alcotest.(check int) "all committed" n
    (Replication.Replicated_kv.committed cluster);
  (* Every touched key agrees across the primary and all backups. *)
  for k = 1 to 32 do
    let key = Printf.sprintf "user%026d" k in
    let expect =
      value_string (Replication.Replicated_kv.primary_store cluster) key
    in
    List.iter
      (fun store ->
        Alcotest.(check string) (Printf.sprintf "key %d" k) expect
          (value_string store key))
      (Replication.Replicated_kv.backup_stores cluster)
  done;
  (* Every backup acked each call exactly once. *)
  List.iteri
    (fun i link ->
      Alcotest.(check int)
        (Printf.sprintf "backup %d calls drained" i)
        0 (Rpc.Client.outstanding link);
      Alcotest.(check int)
        (Printf.sprintf "backup %d orphan acks" i)
        0 (Rpc.Client.orphans link))
    (Replication.Replicated_kv.backup_links cluster)

let with_refsan f =
  let was = Sanitizer.Refsan.is_enabled () in
  Sanitizer.Refsan.reset ();
  Sanitizer.Refsan.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Sanitizer.Refsan.set_enabled was;
      Sanitizer.Refsan.reset ())
    f

(* Replicate frames handed straight to one backup in the order a reordering,
   duplicating fabric could deliver them: ids 2, 1, 1. *)
let test_backup_reorders_and_reacks_duplicates () =
  with_refsan (fun () ->
      let rig, cluster = make ~backups:1 () in
      let client = List.hd rig.Apps.Rig.clients in
      let backup = Replication.Replicated_kv.backup_endpoint cluster 0 in
      let store = List.hd (Replication.Replicated_kv.backup_stores cluster) in
      let key = "reordered-key" in
      let value seq = String.make (300 * seq) (Char.chr (Char.code 'a' + seq)) in
      let acks = ref [] in
      Net.Transport.set_rx client (fun ~src:_ buf ->
          let msg =
            Cornflakes.Send.deserialize Apps.Proto.schema Apps.Proto.resp buf
          in
          acks := !acks @ [ Option.get (Wire.Dyn.get_int msg "id") ];
          Wire.Dyn.release msg;
          Mem.Pinned.Buf.decr_ref buf);
      let deliver seq =
        let space = rig.Apps.Rig.space in
        let put = Apps.Kv_rpc.Req.create () in
        Apps.Kv_rpc.Req.add_keys_payload put (Wire.Payload.of_string space key);
        Apps.Kv_rpc.Req.add_vals_payload put
          (Wire.Payload.of_string space (value seq));
        let rep = Apps.Kv_rpc.Rep.create () in
        Apps.Kv_rpc.Rep.set_id rep (Int64.of_int seq);
        Apps.Kv_rpc.Rep.set_op rep Apps.Kv_rpc.Backup_service.id_replicate;
        Apps.Kv_rpc.Rep.set_put rep (Apps.Kv_rpc.Req.to_dyn put);
        Apps.Kv_rpc.Rep.send Cornflakes.Config.default client
          ~dst:(Net.Endpoint.id backup) rep;
        Mem.Arena.reset (Net.Transport.arena client);
        Sim.Engine.run_all rig.Apps.Rig.engine
      in
      deliver 2;
      Alcotest.(check (list int64)) "id 2 parked, not acked" [] !acks;
      Alcotest.(check string) "id 2 not applied" "<missing>"
        (value_string store key);
      deliver 1;
      Alcotest.(check (list int64)) "1 then 2 acked" [ 1L; 2L ] !acks;
      Alcotest.(check string) "id 2's value last" (value 2)
        (value_string store key);
      deliver 1;
      Alcotest.(check (list int64)) "duplicate re-acked" [ 1L; 2L; 1L ] !acks;
      Alcotest.(check string) "duplicate not applied again" (value 2)
        (value_string store key);
      Alcotest.(check int) "rx frames released" 0
        (Net.Endpoint.rx_outstanding backup);
      Sim.Engine.quiesce rig.Apps.Rig.engine;
      Alcotest.(check int) "refsan leaks" 0
        (List.length (Sanitizer.Refsan.leaks ()));
      Alcotest.(check int) "refsan hazards" 0 (Sanitizer.Refsan.hazard_count ()))

let test_zero_backups_degenerates_to_plain_kv () =
  let rig, cluster = make ~backups:0 () in
  match run_op rig cluster ~id:9 (Workload.Spec.Put { key = "solo"; sizes = [ 64 ] }) with
  | Some 9 ->
      Alcotest.(check int) "committed" 1
        (Replication.Replicated_kv.committed cluster)
  | _ -> Alcotest.fail "no ack"

let test_sustained_replicated_load () =
  let rig, cluster = make ~backups:2 () in
  let send ep ~dst ~id = Replication.Replicated_kv.send_next cluster ep ~dst ~id in
  let parse_id = Some (fun buf -> Replication.Replicated_kv.parse_id cluster buf) in
  let r =
    Loadgen.Driver.closed_loop rig.Apps.Rig.engine ~clients:rig.Apps.Rig.clients
      ~server:Apps.Rig.server_id ~outstanding:2 ~duration_ns:2_000_000
      ~warmup_ns:0 ~rng:rig.Apps.Rig.rng ~send ~parse_id
  in
  Alcotest.(check bool) "sustains load" true (r.Loadgen.Driver.completed > 200)

let suite =
  [
    Alcotest.test_case "put replicates to backups" `Quick
      test_put_replicates_to_all_backups;
    Alcotest.test_case "ack only after all backups" `Quick
      test_ack_only_after_all_backups;
    Alcotest.test_case "get after put" `Quick test_get_after_put_sees_new_value;
    Alcotest.test_case "multi-get answers every key" `Quick
      test_multi_get_answers_every_key;
    Alcotest.test_case "random puts converge" `Quick test_many_random_puts_converge;
    Alcotest.test_case "backup reorders and re-acks duplicates" `Quick
      test_backup_reorders_and_reacks_duplicates;
    Alcotest.test_case "zero backups" `Quick test_zero_backups_degenerates_to_plain_kv;
    Alcotest.test_case "sustained replicated load" `Slow
      test_sustained_replicated_load;
  ]
