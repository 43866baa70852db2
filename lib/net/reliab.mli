(** The client's table of outstanding requests: id assignment, reply
    matching, and — when asked — per-request timeout + retry with
    exponential backoff and deterministic jitter, and per-call deadlines.

    A ['a t] maps each outstanding request id to one caller payload (the
    load driver stores the send time, a generated RPC client the reply
    handler). Ids run 1, 2, … per table and are never reused, so a reply
    finds its payload by id and a late or duplicated reply finds nothing.

    Datagram endpoints ({!Endpoint}) give no delivery guarantee, and
    Faultline can drop packets and completions at will. A table created
    with a retry config makes a request loop survive that: each call
    re-arms a retransmit timer; on expiry it re-sends under the same id
    (so the server's duplicate suppression and the reply matching both
    keep working) with the timeout growing by [backoff] per attempt, plus
    a jitter drawn from a [Sim.Rng] stream — deterministic per seed. A
    table without one never draws a random number, and arms a timer only
    for a call with a deadline; a call without either costs one table
    entry.

    A retrying table also owns the TX-ring reaper: while requests are
    outstanding it periodically invokes a caller-supplied reap callback
    (typically [Nic.Device.reap_lost] on every NIC) so descriptors whose
    CQE was lost get their references released. The reaper re-arms only
    while work is outstanding, so a quiescing engine still terminates. *)

type config = {
  timeout_ns : int;  (** base retransmission timeout *)
  max_retries : int;  (** re-sends after the initial attempt *)
  backoff : float;  (** timeout multiplier per attempt (>= 1.0) *)
  jitter : float;  (** +/- fraction of each timeout (in [0,1]) *)
  reap_period_ns : int;  (** reap callback period while outstanding *)
}

val default_config : config

type 'a t

(** [create ?retry engine] — an empty table on [engine]'s clock. With
    [retry = (config, rng)] every call retransmits on timeout; the rng
    should be split from the experiment seed so retry jitter replays
    deterministically. Raises [Invalid_argument] on a non-positive
    timeout/period, negative retries, backoff < 1, or jitter outside
    [0,1]. *)
val create : ?retry:config * Sim.Rng.t -> Sim.Engine.t -> 'a t

(** [call ?deadline_ns t v ~send ~give_up] assigns the next id, stores
    [v] under it, calls [send id] once, now, and returns the id. With a
    retry config, [send id] is re-invoked on each retransmission and
    [give_up v] runs once if [max_retries] re-sends all time out.

    A [deadline_ns] (relative to now) resolves the call at the deadline
    if no reply came first: [give_up v] runs and the call counts as
    {!abandoned}. With retries it also clamps the retry budget: no
    retransmission whose timer would fire at or past the deadline is
    scheduled (deterministic: the abandon time is the deadline,
    independent of jitter draws). Raises [Invalid_argument] if the
    deadline is not positive. *)
val call :
  ?deadline_ns:int ->
  'a t ->
  'a ->
  send:(int -> unit) ->
  give_up:('a -> unit) ->
  int

(** [find t id] is the payload of outstanding call [id], left in place
    (for a streamed reply that has more chunks to come). Raises
    [Not_found] if [id] is not outstanding. *)
val find : 'a t -> int -> 'a

(** [ack t id] completes call [id]: removes it, disarming its timers, and
    returns its payload. Raises [Not_found] — counted in {!dup_acks} — if
    the id is not outstanding: already acked, given up, or never
    issued. *)
val ack : 'a t -> int -> 'a

(** Install the reap callback (see module doc). Raises [Invalid_argument]
    on a table without a retry config. *)
val set_reaper : 'a t -> (unit -> unit) -> unit

(** Requests currently awaiting a response. *)
val outstanding : 'a t -> int

(** Counters: calls issued, retransmissions sent, timer expiries,
    calls given up (retries exhausted or deadline), first acks, and
    duplicate/late acks. *)
val tracked : 'a t -> int

val retries : 'a t -> int

val timeouts : 'a t -> int

val give_ups : 'a t -> int

(** Of the {!give_ups}, how many resolved at a deadline (always [<=]
    [give_ups]; a deadline abandon also counts as a give-up so existing
    accounting — e.g. the load driver's abandoned column — is unchanged). *)
val abandoned : 'a t -> int

val acked : 'a t -> int

val dup_acks : 'a t -> int
