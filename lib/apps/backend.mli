(** Serialization backends: one record per evaluated system (§6.1.3).

    Each backend knows how to send a dynamic message over a transport
    (UDP or TCP — the backend is datapath-agnostic), how to deserialize a
    received buffer, and how to wrap raw application bytes into a payload
    for an outgoing message:

    - Cornflakes wraps through {!Cornflakes.Cf_ptr.make} — the hybrid
      threshold plus [recover_ptr], paying copy or refcount per field;
    - the copying libraries hold a [Literal] window and pay their copies at
      serialization time.

    Clients match a reply to its request by the reply's id, through
    [id_reader]. *)

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
      (** [id_reader tr] is a client's reply-id read over transport [tr]:
          call it once per client and keep the closure, which maps a
          received [Resp] frame to its [id] field, or [-1] when the field
          is absent. It is uncharged and leaves the frame's refcount as it
          found it. Cornflakes validates the frame once with a pooled
          {!Wire.Reader} and loads the id in place — no reference, no
          [Wire.Dyn], no allocation per reply — and raises
          {!Wire.Reader.Invalid} on a frame [recv] would reject. The
          baselines [recv] the reply over [tr], read the id and release
          the message. *)
}

(** [cornflakes ~config] — hybrid by default; pass
    {!Cornflakes.Config.all_copy} / [all_zero_copy] for the ablations. *)
val cornflakes : ?config:Cornflakes.Config.t -> unit -> t

val protobuf : t

val flatbuffers : t

val capnproto : t

(** The four systems of the end-to-end comparisons, Cornflakes first. *)
val all : t list

val by_name : string -> t
