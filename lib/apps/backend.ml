type t = {
  name : string;
  send :
    ?cpu:Memmodel.Cpu.t -> Net.Transport.t -> dst:int -> Wire.Dyn.t -> unit;
  recv :
    ?cpu:Memmodel.Cpu.t ->
    Net.Transport.t ->
    Schema.Desc.message ->
    Mem.Pinned.Buf.t ->
    Wire.Dyn.t;
  wrap :
    ?cpu:Memmodel.Cpu.t -> Net.Transport.t -> Mem.View.t -> Wire.Payload.t;
  id_reader : Net.Transport.t -> Mem.Pinned.Buf.t -> int;
}

(* Cornflakes replies are read in place: one pooled reader per client,
   validated with the generated folded validator (the frames the [Dyn]
   parser accepts, no others), then the id word loaded as a native int.
   No reference is taken and nothing is allocated per reply; a rejected
   frame raises [Wire.Reader.Invalid]. *)
let cornflakes_id_reader _tr =
  let r = Kv_rpc.Resp.reader () in
  fun buf ->
    Kv_rpc.Resp.read_folded r buf;
    Wire.Reader.get_int_or r Proto.resp_id ~default:(-1)

(* The baselines read a reply id as they read any reply: decode the whole
   [Resp], read the id, release the decoded message. *)
let decode_id_reader recv tr buf =
  let msg = recv tr Proto.resp buf in
  let id =
    match Wire.Dyn.get_int msg "id" with
    | Some id -> Int64.to_int id
    | None -> -1
  in
  Wire.Dyn.release msg;
  id

let cornflakes ?(config = Cornflakes.Config.default) () =
  {
    name =
      (if config = Cornflakes.Config.default then "cornflakes"
       else if config = Cornflakes.Config.all_copy then "cornflakes-copy"
       else if config = Cornflakes.Config.all_zero_copy then "cornflakes-zc"
       else
         Printf.sprintf "cornflakes-t%d%s" config.Cornflakes.Config.zero_copy_threshold
           (if config.Cornflakes.Config.serialize_and_send then "" else "-nosas"));
    send = (fun ?cpu tr ~dst msg -> Cornflakes.Send.send_via ?cpu config tr ~dst msg);
    recv =
      (fun ?cpu _tr desc buf ->
        Cornflakes.Send.deserialize ?cpu Proto.schema desc buf);
    wrap =
      (fun ?cpu tr view ->
        Cornflakes.Cf_ptr.make ?cpu config (Net.Transport.endpoint tr) view);
    id_reader = cornflakes_id_reader;
  }

let literal_wrap ?cpu _tr view =
  ignore cpu;
  Wire.Payload.Literal view

(* Setting a bytes field on a Protobuf struct copies the data into the
   message object (paper section 8: "applications still move data from
   in-memory data structures to Protobuf objects"); SerializeTo* then moves
   it again into the output buffer. The first copy is the cold one. *)
let protobuf_wrap ?cpu tr view =
  Wire.Payload.Copied (Mem.Arena.copy_in ?cpu (Net.Transport.arena tr) view)

let protobuf_recv ?cpu tr desc buf =
  Baselines.Protobuf.deserialize ?cpu (Net.Transport.endpoint tr) Proto.schema
    desc buf

let flatbuffers_recv ?cpu _tr desc buf =
  Baselines.Flatbuf.deserialize ?cpu Proto.schema desc buf

let capnproto_recv ?cpu _tr desc buf =
  Baselines.Capnp.deserialize ?cpu Proto.schema desc buf

let protobuf =
  {
    name = "protobuf";
    send = (fun ?cpu tr ~dst msg -> Baselines.Protobuf.serialize_and_send ?cpu tr ~dst msg);
    recv = protobuf_recv;
    wrap = protobuf_wrap;
    id_reader = decode_id_reader protobuf_recv;
  }

let flatbuffers =
  {
    name = "flatbuffers";
    send = (fun ?cpu tr ~dst msg -> Baselines.Flatbuf.serialize_and_send ?cpu tr ~dst msg);
    recv = flatbuffers_recv;
    wrap = literal_wrap;
    id_reader = decode_id_reader flatbuffers_recv;
  }

let capnproto =
  {
    name = "capnproto";
    send = (fun ?cpu tr ~dst msg -> Baselines.Capnp.serialize_and_send ?cpu tr ~dst msg);
    recv = capnproto_recv;
    wrap = literal_wrap;
    id_reader = decode_id_reader capnproto_recv;
  }

let all = [ cornflakes (); protobuf; flatbuffers; capnproto ]

let by_name name =
  match List.find_opt (fun b -> b.name = name) all with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Backend.by_name: %s" name)
