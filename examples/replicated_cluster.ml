(* Replicated KV cluster demo (§4's nested-object application): one primary,
   two backups; a put is acknowledged only after both backups applied it.
   Exits 1 unless the put committed once and every backup holds the key.

   Run with:  dune exec examples/replicated_cluster.exe *)

let () =
  let rig = Apps.Rig.create ~n_clients:1 () in
  let workload = Workload.Ycsb.make ~n_keys:64 ~entries:1 ~entry_size:600 () in
  let cluster = Replication.Replicated_kv.create rig ~backups:2 ~workload in
  let client = List.hd rig.Apps.Rig.clients in
  Net.Transport.set_rx client (fun ~src:_ buf ->
      Printf.printf "client: ack for request %d at t=%d ns\n"
        (Replication.Replicated_kv.parse_id cluster buf)
        (Sim.Engine.now rig.Apps.Rig.engine);
      Mem.Pinned.Buf.decr_ref buf);
  Replication.Replicated_kv.send_op cluster
    (Workload.Spec.Put { key = "demo-key"; sizes = [ 900 ] })
    client ~dst:Apps.Rig.server_id ~id:1;
  Sim.Engine.run_all rig.Apps.Rig.engine;
  let committed = Replication.Replicated_kv.committed cluster in
  Printf.printf "committed puts: %d\n" committed;
  let ok = ref (committed = 1) in
  List.iteri
    (fun i store ->
      match Kvstore.Store.get store ~key:"demo-key" with
      | Some v ->
          Printf.printf "backup %d holds %d bytes\n" i (Kvstore.Store.value_len v)
      | None ->
          Printf.printf "backup %d missing the key!\n" i;
          ok := false)
    (Replication.Replicated_kv.backup_stores cluster);
  if not !ok then exit 1
