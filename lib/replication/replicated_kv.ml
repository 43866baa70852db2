(* The replicated store speaks the kv protocol ([lib/apps/kv.proto]):
   clients send the [Req] frames any kv server reads, and the primary
   forwards each put to every backup nested in a [Rep], through the
   generated [Backup] service. *)

module Kv_rpc = Apps.Kv_rpc

let config = Cornflakes.Config.default

let rep_put = Schema.Desc.field_index Kv_rpc.Rep.desc "put"

(* One copy of the store: its core, transport, store and data pool. *)
type node = {
  cpu : Memmodel.Cpu.t;
  ep : Net.Endpoint.t;
  tr : Net.Transport.t;
  store : Kvstore.Store.t;
  pool : Mem.Pinned.Pool.t;
}

(* An out-of-order replicated put parked until its turn: the key and value
   bytes stay in the receive buffer as [Rc_view] slices, one reference
   each, so the delivery itself can be released. *)
type parked = { pk_key : Wire.Rc_view.t; pk_vals : Wire.Rc_view.t list }

type backup = {
  node : node;
  mutable expected : int64; (* next call id this backup applies *)
  ooo : (int64, parked) Hashtbl.t; (* call id -> parked put *)
  rep_reader : Wire.Reader.t;
  put_reader : Wire.Reader.t;
  ack : Kv_rpc.Resp.t;
}

type cluster = {
  rig : Apps.Rig.t;
  primary : node;
  backups : backup list;
  (* The primary's call state per backup, keyed by the backup's endpoint
     id: a backup's call ids 1, 2, … are its sequence numbers. *)
  links : (int * Rpc.Client.t) list;
  req_reader : Wire.Reader.t;
  resp : Kv_rpc.Resp.t;
  rep : Kv_rpc.Rep.t;
  put : Kv_rpc.Req.t; (* nested in [rep] *)
  mutable committed : int;
  workload : Workload.Spec.t;
  client_rng : Sim.Rng.t;
  client : Apps.Kv_app.client;
}

let primary_store t = t.primary.store

let backup_stores t = List.map (fun b -> b.node.store) t.backups

let backup_endpoint t i = (List.nth t.backups i).node.ep

let backup_links t = List.map snd t.links

let committed t = t.committed

let count r i = if Wire.Reader.present r i then Wire.Reader.count r i else 0

let views r i = List.init (count r i) (fun j -> Wire.Reader.elem_view r i ~j)

(* --- Backup side --------------------------------------------------------- *)

(* Apply the put at [b.expected]: allocate-and-swap into the backup's own
   pool, straight from the frame's bytes. Only then is it acked. *)
let apply b ~dst ~key vals =
  let cpu = b.node.cpu in
  ignore (Kvstore.Store.put_copy ~cpu b.node.store ~pool:b.node.pool ~key vals);
  Kv_rpc.Resp.set_id b.ack b.expected;
  Kv_rpc.Resp.send ~cpu config b.node.tr ~dst b.ack;
  b.expected <- Int64.succ b.expected

let rec drain b ~dst =
  match Hashtbl.find_opt b.ooo b.expected with
  | None -> ()
  | Some pk ->
      let cpu = b.node.cpu in
      Hashtbl.remove b.ooo b.expected;
      apply b ~dst
        ~key:(Wire.Rc_view.to_string ~cpu pk.pk_key)
        (List.map Wire.Rc_view.view pk.pk_vals);
      List.iter
        (Wire.Rc_view.release ~cpu ~site:"Replication.apply")
        (pk.pk_key :: pk.pk_vals);
      drain b ~dst

(* A replicate frame is validated once and its nested put opened in place.
   The call id orders the ops: the next one applies, later ones park, an
   already-applied one (a duplicate) is re-acked without a second apply,
   and a duplicate of a parked one is dropped, since its ack must wait for
   its apply. *)
let backup_handler b ~src buf =
  let cpu = b.node.cpu in
  let r = b.rep_reader and put = b.put_reader in
  (try
     Kv_rpc.Rep.read_folded ~cpu r buf;
     Wire.Reader.nested r rep_put ~into:put;
     let seq =
       Wire.Reader.get_u64_or r Kv_rpc.Backup_service.req_id ~default:0L
     in
     if seq = b.expected then begin
       apply b ~dst:src
         ~key:(Wire.Reader.elem_string put Apps.Proto.req_keys ~j:0)
         (views put Apps.Proto.req_vals);
       drain b ~dst:src
     end
     else if seq > b.expected && not (Hashtbl.mem b.ooo seq) then begin
       let rc i ~j = Wire.Reader.elem_rc ~site:"Replication.park" put i ~j in
       let pk_key = rc Apps.Proto.req_keys ~j:0 in
       let pk_vals =
         List.init (count put Apps.Proto.req_vals) (fun j ->
             rc Apps.Proto.req_vals ~j)
       in
       Hashtbl.replace b.ooo seq { pk_key; pk_vals }
     end
     else if seq < b.expected then begin
       Kv_rpc.Resp.set_id b.ack seq;
       Kv_rpc.Resp.send ~cpu config b.node.tr ~dst:src b.ack
     end
   with Wire.Reader.Invalid _ -> ());
  Mem.Pinned.Buf.decr_ref ~cpu buf

(* --- Primary side --------------------------------------------------------- *)

(* Answer [dst] with the pooled [Resp]: the id echo plus what [fill]
   adds. *)
let reply t ~dst ~id fill =
  let p = t.primary in
  Wire.Dyn.clear (Kv_rpc.Resp.to_dyn t.resp);
  Kv_rpc.Resp.set_id t.resp id;
  fill t.resp;
  Kv_rpc.Resp.send ~cpu:p.cpu config p.tr ~dst t.resp

(* Values leave the primary's store zero-copy past the threshold. *)
let add_buf t resp b =
  Kv_rpc.Resp.add_vals ~cpu:t.primary.cpu config t.primary.ep resp
    (Mem.Pinned.Buf.view b)

(* One value slot per key, in request order; a miss answers an empty
   value, Kv_app's positional rule. A get-index reads as a get of its key:
   the whole value. *)
let get t r resp =
  for j = 0 to count r Apps.Proto.req_keys - 1 do
    let key = Wire.Reader.elem_string r Apps.Proto.req_keys ~j in
    match Kvstore.Store.get ~cpu:t.primary.cpu t.primary.store ~key with
    | Some v -> List.iter (add_buf t resp) (Kvstore.Store.buffers v)
    | None ->
        Kv_rpc.Resp.add_vals_payload resp
          (Wire.Payload.of_string t.rig.Apps.Rig.space "")
  done

(* The put's key and the primary's freshly installed value buffers, nested
   in the pooled [Rep] as a [Req]; the call stamps the backup's call id. *)
let replicate t link ~dst ~key bufs ~on_reply =
  let p = t.primary in
  Wire.Dyn.clear (Kv_rpc.Req.to_dyn t.put);
  Kv_rpc.Req.add_keys ~cpu:p.cpu config p.ep t.put
    (Mem.View.of_string t.rig.Apps.Rig.space key);
  List.iter
    (fun b ->
      Kv_rpc.Req.add_vals ~cpu:p.cpu config p.ep t.put (Mem.Pinned.Buf.view b))
    bufs;
  ignore
    (Kv_rpc.Backup_service.call_replicate ~cpu:p.cpu link ~dst t.rep ~on_reply)

(* Apply locally, replicate to every backup, and answer the client after
   the last backup's ack. *)
let put t ~src ~id r =
  let p = t.primary in
  let key = Wire.Reader.elem_string r Apps.Proto.req_keys ~j:0 in
  ignore
    (Kvstore.Store.put_copy ~cpu:p.cpu p.store ~pool:p.pool ~key
       (views r Apps.Proto.req_vals));
  let commit () =
    t.committed <- t.committed + 1;
    reply t ~dst:src ~id ignore
  in
  if t.links = [] then commit ()
  else begin
    let bufs =
      match Kvstore.Store.get ~cpu:p.cpu p.store ~key with
      | Some v -> Kvstore.Store.buffers v
      | None -> []
    in
    let awaiting = ref (List.length t.links) in
    List.iter
      (fun (dst, link) ->
        replicate t link ~dst ~key bufs ~on_reply:(fun _ ->
            decr awaiting;
            if !awaiting = 0 then commit ()))
      t.links
  end

(* A client [Req] is validated once and read in place; the method word
   picks the row. Gets answer at once, a put's reply waits for its
   backups. Backup acks route to their link's call table. *)
let serve_client t ~src buf =
  let r = t.req_reader in
  Kv_rpc.Req.read_folded ~cpu:t.primary.cpu r buf;
  let id = Wire.Reader.get_u64_or r Apps.Proto.req_id ~default:0L in
  let op = Wire.Reader.get_u64_or r Apps.Proto.req_op ~default:(-1L) in
  if op = Kv_rpc.Kv_service.id_put then put t ~src ~id r
  else if
    op = Kv_rpc.Kv_service.id_get || op = Kv_rpc.Kv_service.id_get_index
  then reply t ~dst:src ~id (get t r)
  else reply t ~dst:src ~id ignore

let primary_handler t ~src buf =
  let cpu = t.primary.cpu in
  (try
     match List.assoc_opt src t.links with
     | Some link -> Kv_rpc.Backup_service.deliver ~cpu link buf
     | None -> serve_client t ~src buf
   with Wire.Reader.Invalid _ -> ());
  Mem.Pinned.Buf.decr_ref ~cpu buf

(* --- Construction --------------------------------------------------------- *)

let node rig ~cpu ~ep ~tr ~workload ~name =
  let pool =
    Apps.Rig.data_pool rig ~name ~classes:workload.Workload.Spec.pool_classes
  in
  let store =
    Kvstore.Store.create rig.Apps.Rig.space ~name
      ~capacity:workload.Workload.Spec.store_capacity
  in
  workload.Workload.Spec.populate store ~pool;
  { cpu; ep; tr; store; pool }

let create rig ~backups ~workload =
  let primary =
    node rig ~cpu:rig.Apps.Rig.cpu ~ep:rig.Apps.Rig.server_ep
      ~tr:rig.Apps.Rig.server_tr ~workload ~name:"primary"
  in
  let backups =
    List.init backups (fun i ->
        let cpu = Memmodel.Cpu.create (Memmodel.Cpu.params rig.Apps.Rig.cpu) in
        let ep =
          Net.Endpoint.create ~cpu rig.Apps.Rig.fabric rig.Apps.Rig.registry
            ~id:(11 + i)
        in
        let tr = Apps.Rig.transport_for ~kind:rig.Apps.Rig.transport_kind ep in
        let server = Loadgen.Server.create tr cpu in
        let b =
          {
            node =
              node rig ~cpu ~ep ~tr ~workload
                ~name:(Printf.sprintf "backup%d" i);
            expected = 1L;
            ooo = Hashtbl.create 32;
            rep_reader = Kv_rpc.Rep.reader ();
            put_reader = Kv_rpc.Req.reader ();
            ack = Kv_rpc.Resp.create ();
          }
        in
        Loadgen.Server.set_handler server (fun ~src buf ->
            backup_handler b ~src buf);
        b)
  in
  let put = Kv_rpc.Req.create () in
  let rep = Kv_rpc.Rep.create () in
  Kv_rpc.Rep.set_put rep (Kv_rpc.Req.to_dyn put);
  let t =
    {
      rig;
      primary;
      backups;
      links =
        List.map
          (fun b ->
            ( Net.Endpoint.id b.node.ep,
              Kv_rpc.Backup_service.client primary.tr ))
          backups;
      req_reader = Kv_rpc.Req.reader ();
      resp = Kv_rpc.Resp.create ();
      rep;
      put;
      committed = 0;
      workload;
      client_rng = Sim.Rng.split rig.Apps.Rig.rng;
      client =
        Apps.Kv_app.client ~space:rig.Apps.Rig.space
          ~backend:(Apps.Backend.cornflakes ~config ())
          rig.Apps.Rig.clients;
    }
  in
  Loadgen.Server.set_handler rig.Apps.Rig.server (fun ~src buf ->
      primary_handler t ~src buf);
  t

(* --- Client side ---------------------------------------------------------- *)

let send_op t op tr ~dst ~id = Apps.Kv_app.write_op t.client op tr ~dst ~id

let send_next t tr ~dst ~id =
  send_op t (t.workload.Workload.Spec.next t.client_rng) tr ~dst ~id

let parse_id t buf = Apps.Kv_app.read_id t.client buf
