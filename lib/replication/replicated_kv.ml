let schema =
  Schema.Parser.parse
    {|
    message RepOp {
      uint64 seq = 1;
      uint32 kind = 2;
      bytes key = 3;
      repeated bytes vals = 4;
    }
    message RepMsg {
      uint64 id = 1;
      uint32 role = 2;
      RepOp op = 3;
      repeated bytes vals = 4;
    }
    |}

let rep_msg = Schema.Desc.message schema "RepMsg"

let rep_op = Schema.Desc.message schema "RepOp"

(* Roles. *)
let role_request = 0L

let role_replicate = 1L

let role_ack = 2L

let role_reply = 3L

(* Op kinds. *)
let kind_get = 0L

let kind_put = 1L

let config = Cornflakes.Config.default

(* Field indices (schema order) for the in-place readers. *)
let msg_id = Schema.Desc.field_index rep_msg "id"

let msg_role = Schema.Desc.field_index rep_msg "role"

let msg_op = Schema.Desc.field_index rep_msg "op"

let op_seq = Schema.Desc.field_index rep_op "seq"

let op_kind = Schema.Desc.field_index rep_op "kind"

let op_key = Schema.Desc.field_index rep_op "key"

let op_vals = Schema.Desc.field_index rep_op "vals"

(* An out-of-order replicate op parked until its sequence turn: the key and
   value bytes stay in the receive buffer as [Rc_view] slices (one
   reference each) plus the delivery reference on the buffer itself — no
   [Dyn] materialization survives the handler. *)
type parked = {
  pk_key : Wire.Rc_view.t option;
  pk_vals : Wire.Rc_view.t list;
  pk_buf : Mem.Pinned.Buf.t;
}

type replica = {
  ep : Net.Endpoint.t;
  cpu : Memmodel.Cpu.t;
  server : Loadgen.Server.t;
  store : Kvstore.Store.t;
  pool : Mem.Pinned.Pool.t;
  mutable expected_seq : int64; (* next sequence a backup will apply *)
  ooo : (int64, parked) Hashtbl.t;
  (* Pooled readers, revalidated per delivery. *)
  msg_reader : Wire.Reader.t;
  op_reader : Wire.Reader.t;
}

type pending_put = {
  client_src : int;
  client_id : int64;
  mutable awaiting : int;
}

type cluster = {
  rig : Apps.Rig.t;
  primary : replica;
  backups : replica list;
  pending : (int64, pending_put) Hashtbl.t;
  mutable next_seq : int64;
  mutable committed : int;
  workload : Workload.Spec.t;
  client_rng : Sim.Rng.t;
  client_reader : Wire.Reader.t; (* client-side id extraction, in place *)
}

let primary_store t = t.primary.store

let backup_stores t = List.map (fun b -> b.store) t.backups

let committed t = t.committed

(* --- Shared helpers ----------------------------------------------------- *)

(* Collect an op's value windows in place (reader must hold a validated
   [RepOp] level). *)
let op_val_views r =
  if Wire.Reader.present r op_vals then
    List.init (Wire.Reader.count r op_vals) (fun j ->
        Wire.Reader.elem_view r op_vals ~j)
  else []

let reply ~cpu replica ~dst ~id ~vals =
  let msg = Wire.Dyn.create rep_msg in
  Wire.Dyn.set_int msg "id" id;
  Wire.Dyn.set_int msg "role" role_reply;
  List.iter (fun p -> Wire.Dyn.append msg "vals" (Wire.Dyn.Payload p)) vals;
  Cornflakes.Send.send_object ~cpu config replica.ep ~dst msg

(* --- Backup side --------------------------------------------------------- *)

let send_ack ~cpu replica ~dst ~seq =
  let ack = Wire.Dyn.create rep_msg in
  Wire.Dyn.set_int ack "id" seq;
  Wire.Dyn.set_int ack "role" role_ack;
  Cornflakes.Send.send_object ~cpu config replica.ep ~dst ack

let rec backup_apply_in_order replica ~src =
  match Hashtbl.find_opt replica.ooo replica.expected_seq with
  | None -> ()
  | Some parked ->
      Hashtbl.remove replica.ooo replica.expected_seq;
      let cpu = replica.cpu in
      let key =
        match parked.pk_key with
        | Some rc -> Wire.Rc_view.to_string ~cpu rc
        | None -> ""
      in
      (* Allocate-and-swap into the replica's own pool, straight from the
         parked slices: one copy into the store, no intermediate. *)
      ignore
        (Kvstore.Store.put_copy ~cpu replica.store ~pool:replica.pool ~key
           (List.map Wire.Rc_view.view parked.pk_vals));
      let seq = replica.expected_seq in
      replica.expected_seq <- Int64.add replica.expected_seq 1L;
      (* The store owns its copies now: release the parked slices, then
         the delivery reference — at zero the RX ring slot recycles. *)
      (match parked.pk_key with
      | Some rc -> Wire.Rc_view.release ~cpu ~site:"Replication.apply" rc
      | None -> ());
      List.iter
        (fun rc -> Wire.Rc_view.release ~cpu ~site:"Replication.apply" rc)
        parked.pk_vals;
      Mem.Pinned.Buf.decr_ref ~cpu parked.pk_buf;
      (* Cumulative-style ack for this sequence number. *)
      send_ack ~cpu replica ~dst:src ~seq;
      backup_apply_in_order replica ~src

let backup_handler replica ~src buf =
  let cpu = replica.cpu in
  let r = replica.msg_reader in
  match Wire.Reader.validate ~cpu r buf with
  | exception Wire.Reader.Invalid _ -> Mem.Pinned.Buf.decr_ref ~cpu buf
  | () ->
      let role =
        if Wire.Reader.present r msg_role then Wire.Reader.get_u64 r msg_role
        else -1L
      in
      if role = role_replicate && Wire.Reader.present r msg_op then begin
        match
          Wire.Reader.nested r msg_op ~into:replica.op_reader
        with
        | exception Wire.Reader.Invalid _ -> Mem.Pinned.Buf.decr_ref ~cpu buf
        | () ->
            let op = replica.op_reader in
            let seq =
              if Wire.Reader.present op op_seq then
                Wire.Reader.get_u64 op op_seq
              else -1L
            in
            if seq >= replica.expected_seq && not (Hashtbl.mem replica.ooo seq)
            then begin
              (* Park the op until its turn: key and values stay in the
                 receive buffer as refcounted slices; the delivery
                 reference on [buf] transfers to the parked record. *)
              let pk_key =
                if Wire.Reader.present op op_key then
                  Some
                    (Wire.Reader.payload_rc ~site:"Replication.park" op op_key)
                else None
              in
              let pk_vals =
                if Wire.Reader.present op op_vals then
                  List.init (Wire.Reader.count op op_vals) (fun j ->
                      Wire.Reader.elem_rc ~site:"Replication.park" op op_vals
                        ~j)
                else []
              in
              Hashtbl.replace replica.ooo seq { pk_key; pk_vals; pk_buf = buf };
              backup_apply_in_order replica ~src
            end
            else begin
              (* Duplicate or already applied: re-ack idempotently. *)
              send_ack ~cpu replica ~dst:src ~seq;
              Mem.Pinned.Buf.decr_ref ~cpu buf
            end
      end
      else Mem.Pinned.Buf.decr_ref ~cpu buf

(* --- Primary side --------------------------------------------------------- *)

let replicate t ~cpu ~seq ~key vals =
  List.iter
    (fun backup ->
      let env = Wire.Dyn.create rep_msg in
      Wire.Dyn.set_int env "id" seq;
      Wire.Dyn.set_int env "role" role_replicate;
      let op = Wire.Dyn.create rep_op in
      Wire.Dyn.set_int op "seq" seq;
      Wire.Dyn.set_int op "kind" kind_put;
      Wire.Dyn.set_payload op "key"
        (Cornflakes.Cf_ptr.make ~cpu config t.primary.ep
           (Mem.View.of_string t.rig.Apps.Rig.space key));
      (* Values go out of the primary's freshly installed store value —
         zero-copy for fields past the threshold. *)
      List.iter
        (fun buf ->
          Wire.Dyn.append op "vals"
            (Wire.Dyn.Payload
               (Cornflakes.Cf_ptr.make ~cpu config t.primary.ep
                  (Mem.Pinned.Buf.view buf))))
        vals;
      Wire.Dyn.set env "op" (Wire.Dyn.Nested op);
      Cornflakes.Send.send_object ~cpu config t.primary.ep
        ~dst:(Net.Endpoint.id backup.ep)
        env)
    t.backups

(* Client request over the validated reader: the op level opens in place,
   the key is hashed straight out of the receive buffer, and put values
   blit from their in-place windows into the store — the apply path never
   materializes a [Dyn]. *)
let handle_client_request t ~cpu ~src r =
  let id = if Wire.Reader.present r msg_id then Wire.Reader.get_u64 r msg_id else 0L in
  if
    Wire.Reader.present r msg_op
    && match Wire.Reader.nested r msg_op ~into:t.primary.op_reader with
       | () -> true
       | exception Wire.Reader.Invalid _ -> false
  then begin
    let op = t.primary.op_reader in
    let key =
      if Wire.Reader.present op op_key then
        Wire.Reader.payload_string op op_key
      else ""
    in
    let kind =
      if Wire.Reader.present op op_kind then Wire.Reader.get_u64 op op_kind
      else -1L
    in
    if kind = kind_get then begin
      let vals =
        match Kvstore.Store.get ~cpu t.primary.store ~key with
        | Some value ->
            List.map
              (fun buf ->
                Cornflakes.Cf_ptr.make ~cpu config t.primary.ep
                  (Mem.Pinned.Buf.view buf))
              (Kvstore.Store.buffers value)
        | None -> []
      in
      reply ~cpu t.primary ~dst:src ~id ~vals
    end
    else if kind = kind_put then begin
      ignore
        (Kvstore.Store.put_copy ~cpu t.primary.store ~pool:t.primary.pool ~key
           (op_val_views op));
      let seq = t.next_seq in
      t.next_seq <- Int64.add t.next_seq 1L;
      if t.backups = [] then begin
        t.committed <- t.committed + 1;
        reply ~cpu t.primary ~dst:src ~id ~vals:[]
      end
      else begin
        Hashtbl.replace t.pending seq
          { client_src = src; client_id = id; awaiting = List.length t.backups };
        let vals =
          match Kvstore.Store.get ~cpu t.primary.store ~key with
          | Some value -> Kvstore.Store.buffers value
          | None -> []
        in
        replicate t ~cpu ~seq ~key vals
      end
    end
    else reply ~cpu t.primary ~dst:src ~id ~vals:[]
  end
  else reply ~cpu t.primary ~dst:src ~id ~vals:[]

let handle_ack t ~cpu r =
  if Wire.Reader.present r msg_id then
    let seq = Wire.Reader.get_u64 r msg_id in
    match Hashtbl.find_opt t.pending seq with
    | None -> () (* duplicate ack *)
    | Some p ->
        p.awaiting <- p.awaiting - 1;
        if p.awaiting = 0 then begin
          Hashtbl.remove t.pending seq;
          t.committed <- t.committed + 1;
          reply ~cpu t.primary ~dst:p.client_src ~id:p.client_id ~vals:[]
        end

let primary_handler t ~src buf =
  let cpu = t.primary.cpu in
  let r = t.primary.msg_reader in
  match Wire.Reader.validate ~cpu r buf with
  | exception Wire.Reader.Invalid _ -> Mem.Pinned.Buf.decr_ref ~cpu buf
  | () ->
      let role =
        if Wire.Reader.present r msg_role then Wire.Reader.get_u64 r msg_role
        else -1L
      in
      (if role = role_request then handle_client_request t ~cpu ~src r
       else if role = role_ack then handle_ack t ~cpu r);
      Mem.Pinned.Buf.decr_ref ~cpu buf

(* --- Construction --------------------------------------------------------- *)

let backup_id i = 11 + i

let make_replica rig ~ep ~cpu ~server ~workload ~name =
  let pool =
    Apps.Rig.data_pool rig ~name ~classes:workload.Workload.Spec.pool_classes
  in
  let store =
    Kvstore.Store.create rig.Apps.Rig.space ~name
      ~capacity:workload.Workload.Spec.store_capacity
  in
  workload.Workload.Spec.populate store ~pool;
  {
    ep;
    cpu;
    server;
    store;
    pool;
    expected_seq = 1L;
    ooo = Hashtbl.create 32;
    msg_reader = Wire.Reader.create rep_msg;
    op_reader = Wire.Reader.create rep_op;
  }

let create rig ~backups ~workload =
  let primary =
    make_replica rig ~ep:rig.Apps.Rig.server_ep ~cpu:rig.Apps.Rig.cpu
      ~server:rig.Apps.Rig.server ~workload ~name:"primary"
  in
  let backup_replicas =
    List.init backups (fun i ->
        let cpu = Memmodel.Cpu.create (Memmodel.Cpu.params rig.Apps.Rig.cpu) in
        let ep =
          Net.Endpoint.create ~cpu rig.Apps.Rig.fabric rig.Apps.Rig.registry
            ~id:(backup_id i)
        in
        let server = Loadgen.Server.create (Net.Endpoint.transport ep) cpu in
        make_replica rig ~ep ~cpu ~server ~workload
          ~name:(Printf.sprintf "backup%d" i))
  in
  let t =
    {
      rig;
      primary;
      backups = backup_replicas;
      pending = Hashtbl.create 64;
      next_seq = 1L;
      committed = 0;
      workload;
      client_rng = Sim.Rng.split rig.Apps.Rig.rng;
      client_reader = Wire.Reader.create rep_msg;
    }
  in
  Loadgen.Server.set_handler rig.Apps.Rig.server (fun ~src buf ->
      primary_handler t ~src buf);
  List.iter
    (fun replica ->
      Loadgen.Server.set_handler replica.server (fun ~src buf ->
          backup_handler replica ~src buf))
    backup_replicas;
  t

(* --- Client side ---------------------------------------------------------- *)

let send_op t op client ~dst ~id =
  let space = t.rig.Apps.Rig.space in
  let msg = Wire.Dyn.create rep_msg in
  Wire.Dyn.set_int msg "id" (Int64.of_int id);
  Wire.Dyn.set_int msg "role" role_request;
  let o = Wire.Dyn.create rep_op in
  (match op with
  | Workload.Spec.Get { keys } ->
      Wire.Dyn.set_int o "kind" kind_get;
      (match keys with
      | key :: _ ->
          Wire.Dyn.set_payload o "key" (Wire.Payload.of_string space key)
      | [] -> ())
  | Workload.Spec.Get_index { key; _ } ->
      Wire.Dyn.set_int o "kind" kind_get;
      Wire.Dyn.set_payload o "key" (Wire.Payload.of_string space key)
  | Workload.Spec.Put { key; sizes } ->
      Wire.Dyn.set_int o "kind" kind_put;
      Wire.Dyn.set_payload o "key" (Wire.Payload.of_string space key);
      List.iter
        (fun n ->
          Wire.Dyn.append o "vals"
            (Wire.Dyn.Payload
               (Wire.Payload.of_string space (Workload.Spec.filler (max 1 n)))))
        sizes);
  Wire.Dyn.set msg "op" (Wire.Dyn.Nested o);
  Cornflakes.Send.send_via config client ~dst msg;
  Mem.Arena.reset (Net.Transport.arena client)

let send_next t client ~dst ~id =
  send_op t (t.workload.Workload.Spec.next t.client_rng) client ~dst ~id

let parse_id t buf =
  let r = t.client_reader in
  match Wire.Reader.validate r buf with
  | exception Wire.Reader.Invalid _ -> -1
  | () ->
      if Wire.Reader.present r msg_id then
        Int64.to_int (Wire.Reader.get_u64 r msg_id)
      else -1
