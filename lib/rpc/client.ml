(* Client-side call state shared by every generated stub.

   A generated [call_<m>] closes over this record. Its call goes into the
   client's one table of outstanding calls ([Net.Reliab]), which assigns
   the request id, keeps the reply continuation under it, and runs the
   stub's send closure — stamp the id + method word into the request
   envelope, send through the folded writer — once, then again on each
   retransmission if the client was created with a retry config. A
   declared deadline arms one timer on the transport's engine clock.
   Responses come back through the generated [deliver], which validates
   the frame into the pooled [reader] exactly once and routes on the
   echoed id here — {!complete} resolves the call in the table and runs
   the continuation with the in-place reader, so a unary round trip
   allocates nothing on the reply path beyond the validation itself.

   Streamed methods register a {!Stream.collector}; each chunk's seq word
   (from the response envelope's [seq] field) is checked for order, the
   last bit resolves the call. *)

type reply_handler =
  | Unary of (Wire.Reader.t -> unit)
  | Streamed of {
      on_chunk : Wire.Reader.t -> unit;
      on_done : ok:bool -> unit;
      coll : Stream.collector;
    }

type t = {
  tr : Net.Transport.t;
  config : Cornflakes.Config.t;
  reader : Wire.Reader.t;
  table : reply_handler Net.Reliab.t;
  mutable chunks : int;
  mutable orphans : int;
  mutable misordered : int;
}

let create ?(config = Cornflakes.Config.default) ?retry ~resp tr =
  {
    tr;
    config;
    reader = Wire.Reader.create resp;
    table = Net.Reliab.create ?retry (Net.Endpoint.engine (Net.Transport.endpoint tr));
    chunks = 0;
    orphans = 0;
    misordered = 0;
  }

let transport t = t.tr
let config t = t.config
let reader t = t.reader

(* Schema-declared [deadline_ms=N] method options, on the engine clock. *)
let ns_of_ms ms =
  if ms <= 0 then invalid_arg "Rpc.Client: deadline_ms must be positive";
  ms * 1_000_000

let give_up = function Unary _ -> () | Streamed s -> s.on_done ~ok:false

let start t ?deadline_ms handler ~send =
  let deadline_ns = Option.map ns_of_ms deadline_ms in
  Net.Reliab.call ?deadline_ns t.table handler ~send ~give_up

let call t ?deadline_ms ~send ~on_reply () = start t ?deadline_ms (Unary on_reply) ~send

let call_stream t ?deadline_ms ~send ~on_chunk ~on_done () =
  start t ?deadline_ms (Streamed { on_chunk; on_done; coll = Stream.collector () }) ~send

let complete ?seq_word t ~id r =
  match Net.Reliab.find t.table id with
  | exception Not_found -> t.orphans <- t.orphans + 1
  | Unary f ->
      ignore (Net.Reliab.ack t.table id);
      f r
  | Streamed s -> (
      match seq_word with
      | None ->
          (* A streamed reply without a seq word is a framing error. *)
          t.misordered <- t.misordered + 1
      | Some w -> (
          match Stream.observe s.coll w with
          | `Chunk ->
              t.chunks <- t.chunks + 1;
              s.on_chunk r
          | `Last ->
              ignore (Net.Reliab.ack t.table id);
              t.chunks <- t.chunks + 1;
              s.on_chunk r;
              s.on_done ~ok:true
          | `Out_of_order | `After_end -> t.misordered <- t.misordered + 1))

let outstanding t = Net.Reliab.outstanding t.table
let calls t = Net.Reliab.tracked t.table
let replies t = Net.Reliab.acked t.table
let chunks t = t.chunks
let abandoned t = Net.Reliab.give_ups t.table
let orphans t = t.orphans
let misordered t = t.misordered
