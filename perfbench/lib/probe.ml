(* The benchmark's instrumentation: wrappers around the public records the
   layers already expose — [Apps.Backend.t], [Net.Transport.t],
   [Workload.Spec.t] and the driver's [send]/[parse_id] callbacks. The
   wrappers feed the output checks on every run and open spans only while
   tracing is on; the transport wrapper (gather-entry counting and the
   transport spans) is substituted only while tracing is on, so untraced
   runs send through the layers' own records. *)

type t = {
  spans : Spans.t;
  checks : Checks.t;
  mutable offset : int; (* driver id -> run-wide id, current window *)
  mutable client_req : int; (* id of the request being generated *)
  mutable server_req : int; (* id of the request being served *)
  mutable server_sends : int;
  mutable sg_entries : int;
  wrapped : (Net.Transport.t * Net.Transport.t) option array; (* by ep id *)
}

let create ?every () =
  {
    spans = Spans.create ();
    checks = Checks.create ?every ();
    offset = 0;
    client_req = -1;
    server_req = -1;
    server_sends = 0;
    sg_entries = 0;
    wrapped = Array.make 256 None;
  }

(* Endpoint ids below 100 are servers (kv server, shards, dispatchers);
   clients start at 100 in both the rig and the cluster topology. *)
let is_server_ep ep = Net.Endpoint.id ep < 100

let count_send t ~server n =
  if server then begin
    t.server_sends <- t.server_sends + 1;
    t.sg_entries <- t.sg_entries + n
  end

let[@warning "-16"] make_transport t (tr : Net.Transport.t) =
  let server = is_server_ep tr.Net.Transport.tr_ep in
  let layer = if server then Spans.Tr_send_server else Spans.Tr_send_client in
  let id () = if server then t.server_req else t.client_req in
  let sp = t.spans in
  Net.Transport.make ~name:tr.tr_name ~ep:tr.tr_ep ~headroom:tr.tr_headroom
    ~max_msg_len:tr.tr_max_msg_len ~connect:tr.tr_connect
    ~send_inline:(fun ?cpu ~dst ~segments ->
      count_send t ~server (List.length segments);
      Spans.enter sp layer ~id:(id ());
      tr.tr_send_inline ?cpu ~dst ~segments;
      Spans.leave sp)
    ~send_extra:(fun ?cpu ~dst ~segments ->
      count_send t ~server (1 + List.length segments);
      Spans.enter sp layer ~id:(id ());
      tr.tr_send_extra ?cpu ~dst ~segments;
      Spans.leave sp)
    ~send_inline_zc:(fun ?cpu ~dst ~head ~zc ~zc_n ->
      count_send t ~server (1 + zc_n);
      Spans.enter sp layer ~id:(id ());
      tr.tr_send_inline_zc ?cpu ~dst ~head ~zc ~zc_n;
      Spans.leave sp)
    ~send_extra_zc:(fun ?cpu ~dst ~head ~zc ~zc_n ->
      count_send t ~server (2 + zc_n);
      Spans.enter sp layer ~id:(id ());
      tr.tr_send_extra_zc ?cpu ~dst ~head ~zc ~zc_n;
      Spans.leave sp)
    ~send_string:tr.tr_send_string ~set_rx:tr.tr_set_rx

(* One cached wrapper per underlying transport. *)
let transport t (tr : Net.Transport.t) =
  if not (Spans.is_on t.spans) then tr
  else
    let i = Net.Endpoint.id tr.Net.Transport.tr_ep in
    if i < 0 || i >= Array.length t.wrapped then tr
    else
      match t.wrapped.(i) with
      | Some (orig, w) when orig == tr -> w
      | _ ->
          let w = make_transport t tr in
          t.wrapped.(i) <- Some (tr, w);
          w

let resp_id msg =
  match Wire.Dyn.get_int msg "id" with Some id -> Int64.to_int id | None -> -1

(* Server calls pass [~cpu] (they are charged to a simulated core); client
   calls do not. Client-side serialization and decoding stay inside the
   [apps.send_next] / [apps.parse_id] spans. *)
let backend t (b : Apps.Backend.t) =
  let sp = t.spans in
  {
    b with
    Apps.Backend.send =
      (fun ?cpu tr ~dst msg ->
        let tr = transport t tr in
        match cpu with
        | None -> b.send tr ~dst msg
        | Some _ ->
            Spans.enter sp Spans.Backend_send ~id:t.server_req;
            b.send ?cpu tr ~dst msg;
            Spans.leave sp);
    recv =
      (fun ?cpu tr desc buf ->
        match cpu with
        | None -> b.recv tr desc buf
        | Some _ ->
            Spans.enter sp Spans.Backend_recv ~id:(-1);
            let msg = b.recv ?cpu tr desc buf in
            let id = resp_id msg in
            Spans.set_id sp id;
            Spans.leave sp;
            t.server_req <- id;
            if desc == Apps.Proto.req then
              Checks.on_server_request t.checks ~id msg;
            msg);
    wrap =
      (fun ?cpu tr view ->
        Spans.enter sp Spans.Backend_wrap ~id:t.server_req;
        let p = b.wrap ?cpu tr view in
        Spans.leave sp;
        p);
  }

let workload t (w : Workload.Spec.t) =
  {
    w with
    Workload.Spec.next =
      (fun rng ->
        Spans.enter t.spans Spans.Workload_next ~id:t.client_req;
        let op = w.next rng in
        Spans.leave t.spans;
        op);
  }

(* Driver callbacks. [send_begin] returns the run-wide id to put on the
   wire; [parse_end] maps the parsed id back to the driver's. *)
let send_begin t ~now ~id =
  let gid = t.offset + id in
  Checks.on_send t.checks ~id:gid ~now;
  t.client_req <- gid;
  Spans.enter t.spans Spans.Send_next ~id:gid;
  gid

let send_end t = Spans.leave t.spans

let parse_begin t buf =
  Checks.before_response t.checks buf;
  Spans.enter t.spans Spans.Parse_id ~id:(-1)

let parse_end t ~now ~gid ~buf ~decode =
  Spans.set_id t.spans gid;
  Spans.leave t.spans;
  Checks.on_response t.checks ~id:gid ~now ~buf ~decode;
  if gid <= 0 then gid else gid - t.offset

(* Concatenated value bytes of a response, decoded on a client transport
   (uncharged), with the client arena reset afterwards as the app does. *)
let decode_vals (b : Apps.Backend.t) client buf =
  let msg = b.recv client Apps.Proto.resp buf in
  let s =
    String.concat ""
      (List.filter_map
         (function
           | Wire.Dyn.Payload p -> Some (Wire.Payload.to_string p) | _ -> None)
         (Wire.Dyn.get_list msg "vals"))
  in
  Wire.Dyn.release msg;
  Mem.Arena.reset (Net.Transport.arena client);
  s
