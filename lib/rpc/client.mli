(** Call state shared by every generated client stub.

    Owns the client's one table of outstanding calls ({!Net.Reliab.t}:
    id assignment, reply handler per id, optional retry, per-call
    deadlines) and the pooled response {!Wire.Reader.t}. Generated
    [call_<m>] stubs drive {!call} / {!call_stream}; the generated
    [deliver] validates each response frame once and routes it through
    {!complete}. *)

type t

(** [create ?config ?retry ~resp tr] — [resp] is the service's response
    envelope descriptor (backs the pooled reader); [tr] the transport the
    stubs send on, whose endpoint's engine is the clock deadlines run on.
    With [retry = (config, rng)] every call retransmits on timeout (see
    {!Net.Reliab.create}); deadlines clamp the retry budget. *)
val create :
  ?config:Cornflakes.Config.t ->
  ?retry:Net.Reliab.config * Sim.Rng.t ->
  resp:Schema.Desc.message ->
  Net.Transport.t ->
  t

val transport : t -> Net.Transport.t
val config : t -> Cornflakes.Config.t

(** Pooled reader the generated [deliver] validates responses into. *)
val reader : t -> Wire.Reader.t

(** [call t ?deadline_ms ~send ~on_reply ()] — assigns an id and runs
    [send id] (the stub stamps id + method word into the request and
    sends it); with a retry config, [send id] runs again on each
    retransmission. Returns the id. [on_reply] runs at most once, with
    the validated in-place reader. A [deadline_ms] abandons the call if
    no reply came by then; raises [Invalid_argument] if it is not
    positive. *)
val call :
  t ->
  ?deadline_ms:int ->
  send:(int -> unit) ->
  on_reply:(Wire.Reader.t -> unit) ->
  unit ->
  int

(** Streamed variant: [on_chunk] per in-order chunk (including the last),
    then [on_done ~ok:true]; a deadline or retry exhaustion runs
    [on_done ~ok:false]. *)
val call_stream :
  t ->
  ?deadline_ms:int ->
  send:(int -> unit) ->
  on_chunk:(Wire.Reader.t -> unit) ->
  on_done:(ok:bool -> unit) ->
  unit ->
  int

(** Route a validated response. [seq_word] must be given for streamed
    calls (the response envelope's [seq] field). Unknown ids count as
    {!orphans}; sequence violations as {!misordered}. *)
val complete : ?seq_word:int64 -> t -> id:int -> Wire.Reader.t -> unit

(** Calls awaiting a reply, calls issued, and calls completed. *)
val outstanding : t -> int
val calls : t -> int
val replies : t -> int
val chunks : t -> int

(** Calls resolved by deadline or retry exhaustion. *)
val abandoned : t -> int

(** Replies whose id matched no pending call. *)
val orphans : t -> int

(** Streamed chunks rejected for sequence violations. *)
val misordered : t -> int
