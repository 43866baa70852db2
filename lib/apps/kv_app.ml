(* --- Server half ---------------------------------------------------------- *)

type server = {
  cpu : Memmodel.Cpu.t;
  tr : Net.Transport.t;
  space : Mem.Addr_space.t;
  backend : Backend.t;
  store : Kvstore.Store.t;
  pool : Mem.Pinned.Pool.t;
  mutable misses : int;
  (* Resilience mode (set by [enable_resilience]). With a dedup window
     installed, duplicate puts are suppressed (gets are idempotent and
     re-executed) and per-id put applications are recorded for
     exactly-once assertions. *)
  mutable dedup : Net.Dedup.t option;
  (* Verdict of the pre-dispatch duplicate witness, read by the put row of
     the generated dispatch table. *)
  mutable duplicate : bool;
  mutable puts_suppressed : int;
  put_applies : (int, int) Hashtbl.t; (* request id -> put applications *)
}

(* Read a key payload out of a request: the handler streams over the key
   bytes (it must hash them), charged to App. *)
let key_string ~cpu (p : Wire.Payload.t) =
  let v = Wire.Payload.view p in
  Memmodel.Cpu.stream cpu Memmodel.Cpu.App ~addr:v.Mem.View.addr
    ~len:v.Mem.View.len;
  Mem.View.to_string v

let wrap_value s ~cpu resp buf =
  let payload = s.backend.Backend.wrap ~cpu s.tr (Mem.Pinned.Buf.view buf) in
  Wire.Dyn.append resp "vals" (Wire.Dyn.Payload payload)

(* Values keep positional alignment with the request keys: a miss answers
   an empty value for its slot, which is what lets a cluster dispatcher
   reassemble multi-get responses without re-parsing keys. *)
let handle_get s ~cpu req resp =
  List.iter
    (fun v ->
      match v with
      | Wire.Dyn.Payload p -> (
          let key = key_string ~cpu p in
          match Kvstore.Store.get ~cpu s.store ~key with
          | Some value ->
              List.iter (wrap_value s ~cpu resp) (Kvstore.Store.buffers value)
          | None ->
              s.misses <- s.misses + 1;
              Wire.Dyn.append resp "vals"
                (Wire.Dyn.Payload (Wire.Payload.of_string s.space "")))
      | _ -> ())
    (Wire.Dyn.get_list req "keys")

let handle_get_index s ~cpu req resp =
  match (Wire.Dyn.get_list req "keys", Wire.Dyn.get_int req "index") with
  | [ Wire.Dyn.Payload p ], Some index -> (
      let key = key_string ~cpu p in
      match Kvstore.Store.get ~cpu s.store ~key with
      | Some (Kvstore.Store.Vector arr) when Int64.to_int index < Array.length arr
        ->
          wrap_value s ~cpu resp arr.(Int64.to_int index)
      | Some _ | None -> ())
  | _ -> ()

let handle_put s ~cpu req =
  match Wire.Dyn.get_list req "keys" with
  | [ Wire.Dyn.Payload kp ] ->
      let key = key_string ~cpu kp in
      let srcs =
        List.filter_map
          (function Wire.Dyn.Payload p -> Some (Wire.Payload.view p) | _ -> None)
          (Wire.Dyn.get_list req "vals")
      in
      ignore (Kvstore.Store.put_copy ~cpu s.store ~pool:s.pool ~key srcs)
  | _ -> ()

(* The server side is the generated [Kv_rpc.Kv_service] skeleton: the
   request parses once (via the backend), the duplicate witness runs
   before dispatch for every id-carrying request (gets are idempotent and
   re-executed; the put row reads the stashed verdict), then the method
   word dispatches through the branchless table — the skeleton echoes the
   id into the pooled response and tail-sends it, unknown ops included. *)
let handler s rpc ~src buf =
  let cpu = s.cpu in
  let req = s.backend.Backend.recv ~cpu s.tr Proto.req buf in
  s.duplicate <-
    (match s.dedup with
    | None -> false
    | Some d -> (
        match Wire.Dyn.get_int req "id" with
        | Some id -> Net.Dedup.witness d ~src ~id:(Int64.to_int id) = `Duplicate
        | None -> false));
  Kv_rpc.Kv_service.serve_dyn rpc ~src req;
  Wire.Dyn.release ~cpu req;
  Mem.Pinned.Buf.decr_ref ~cpu ~site:"Kv_app.handler_done" buf

let serve ~cpu ~tr loadgen ~space ~backend ~store ~pool =
  let s =
    {
      cpu;
      tr;
      space;
      backend;
      store;
      pool;
      misses = 0;
      dedup = None;
      duplicate = false;
      puts_suppressed = 0;
      put_applies = Hashtbl.create 256;
    }
  in
  let rpc =
    Kv_rpc.Kv_service.server
      ~send:(fun ~dst resp -> backend.Backend.send ~cpu tr ~dst resp)
      ()
  in
  Kv_rpc.Kv_service.on_get rpc
    ~dyn:(fun ~src:_ req resp -> handle_get s ~cpu req resp);
  Kv_rpc.Kv_service.on_get_index rpc
    ~dyn:(fun ~src:_ req resp -> handle_get_index s ~cpu req resp);
  (* A duplicate put is suppressed and answered with the id-only ack the
     retry layer needs; first applications are recorded for the
     exactly-once audit. *)
  Kv_rpc.Kv_service.on_put rpc
    ~dyn:(fun ~src:_ req _resp ->
      if s.duplicate then s.puts_suppressed <- s.puts_suppressed + 1
      else begin
        (if Option.is_some s.dedup then
           match Wire.Dyn.get_int req "id" with
           | Some id ->
               let id = Int64.to_int id in
               Hashtbl.replace s.put_applies id
                 (1 + Option.value (Hashtbl.find_opt s.put_applies id) ~default:0)
           | None -> ());
        handle_put s ~cpu req
      end);
  Loadgen.Server.set_handler loadgen (fun ~src buf -> handler s rpc ~src buf);
  s

let misses s = s.misses

(* --- Client half (uncharged) -------------------------------------------- *)

type client = {
  c_space : Mem.Addr_space.t;
  c_backend : Backend.t;
  transports : Net.Transport.t list;
  (* Pooled request object, rebuilt in place per message. The stack takes
     over any zero-copy references at send, so a [Dyn.clear] (not
     [reset]) between uses is the correct ownership move. *)
  scratch : Wire.Dyn.t;
  (* Put values are windows over this buffer of filler bytes. Its contents
     never change once built; a longer value swaps in a longer copy. Per
     client, since rigs on different domains each have their own. *)
  mutable pattern : Bytes.t;
  (* The backend's reply-id read, built once per client. *)
  reply_id : Mem.Pinned.Buf.t -> int;
}

let client ~space ~backend transports =
  {
    c_space = space;
    c_backend = backend;
    transports;
    scratch = Wire.Dyn.create Proto.req;
    pattern = Bytes.empty;
    reply_id = backend.Backend.id_reader (List.hd transports);
  }

(* A put value of [max 1 n] filler bytes at fresh simulated addresses:
   what [Wire.Payload.of_string space (filler n)] builds, minus the copies. *)
let put_value c n =
  let n = max 1 n in
  if n > Bytes.length c.pattern then begin
    let b = Bytes.create (max n (2 * Bytes.length c.pattern)) in
    Workload.Spec.blit_pattern b ~off:0 ~len:(Bytes.length b);
    c.pattern <- b
  end;
  Wire.Payload.Literal
    (Mem.View.make
       ~addr:(Mem.Addr_space.reserve c.c_space ~bytes:n)
       ~data:c.pattern ~off:0 ~len:n)

let write_op c op tr ~dst ~id =
  let msg = c.scratch in
  let add_key key =
    Wire.Dyn.append msg "keys"
      (Wire.Dyn.Payload (Wire.Payload.of_string c.c_space key))
  in
  Wire.Dyn.clear msg;
  Wire.Dyn.set_int msg "id" (Int64.of_int id);
  (match op with
  | Workload.Spec.Get { keys } ->
      Wire.Dyn.set_int msg "op" Proto.op_get;
      List.iter add_key keys
  | Workload.Spec.Get_index { key; index } ->
      Wire.Dyn.set_int msg "op" Proto.op_get_index;
      add_key key;
      Wire.Dyn.set_int msg "index" (Int64.of_int index)
  | Workload.Spec.Put { key; sizes } ->
      Wire.Dyn.set_int msg "op" Proto.op_put;
      add_key key;
      List.iter
        (fun n -> Wire.Dyn.append msg "vals" (Wire.Dyn.Payload (put_value c n)))
        sizes);
  c.c_backend.Backend.send tr ~dst msg;
  (* Client-side arenas hold per-request copies; recycle them. *)
  Mem.Arena.reset (Net.Transport.arena tr)

let read_id c buf =
  let id = c.reply_id buf in
  List.iter (fun tr -> Mem.Arena.reset (Net.Transport.arena tr)) c.transports;
  id

(* --- The app: one rig's server and clients over a workload -------------- *)

type t = {
  rig : Rig.t;
  workload : Workload.Spec.t;
  server : server;
  client : client;
  client_rng : Sim.Rng.t;
  (* Resilience mode: a retransmission must replay the op its id was
     first sent with (in-flight id -> op). *)
  retry_cache : (int, Workload.Spec.op) Hashtbl.t;
}

let store t = t.server.store

let serve_rig rig ~backend ~store ~pool =
  serve ~cpu:rig.Rig.cpu ~tr:rig.Rig.server_tr rig.Rig.server
    ~space:rig.Rig.space ~backend ~store ~pool

let install rig ~backend ~workload =
  let pool =
    Rig.data_pool rig ~name:("kv-" ^ workload.Workload.Spec.name)
      ~classes:workload.Workload.Spec.pool_classes
  in
  let store =
    Kvstore.Store.create rig.Rig.space ~name:workload.Workload.Spec.name
      ~capacity:workload.Workload.Spec.store_capacity
  in
  workload.Workload.Spec.populate store ~pool;
  {
    rig;
    workload;
    server = serve_rig rig ~backend ~store ~pool;
    client = client ~space:rig.Rig.space ~backend rig.Rig.clients;
    client_rng = Sim.Rng.split rig.Rig.rng;
    retry_cache = Hashtbl.create 256;
  }

let switch_backend t backend =
  {
    t with
    server = serve_rig t.rig ~backend ~store:t.server.store ~pool:t.server.pool;
    client =
      {
        t.client with
        c_backend = backend;
        reply_id = backend.Backend.id_reader (List.hd t.client.transports);
      };
  }

let enable_resilience t ~dedup = t.server.dedup <- Some dedup

let puts_suppressed t = t.server.puts_suppressed

let put_apply_counts t =
  Hashtbl.fold (fun id n acc -> (id, n) :: acc) t.server.put_applies []
  |> List.sort compare

let send_op t op tr ~dst ~id = write_op t.client op tr ~dst ~id

let send_next t tr ~dst ~id =
  match t.server.dedup with
  | None -> send_op t (t.workload.Workload.Spec.next t.client_rng) tr ~dst ~id
  | Some _ ->
      let op =
        match Hashtbl.find_opt t.retry_cache id with
        | Some op -> op
        | None ->
            let op = t.workload.Workload.Spec.next t.client_rng in
            Hashtbl.replace t.retry_cache id op;
            op
      in
      send_op t op tr ~dst ~id

let parse_id t buf =
  let id = read_id t.client buf in
  Hashtbl.remove t.retry_cache id;
  id
