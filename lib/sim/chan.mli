(** FIFO event channel: one long-lived closure for a stream of events that
    fire in the order they were pushed.

    [push ch ~time n x] schedules one engine event at [time] and parks
    [(n, x)] in a ring; when that event fires, the channel's handler runs
    on the ring's front entry. Every push schedules its own event, so it
    takes its own sequence number and fires in exactly the [(time, seq)]
    slot a fresh closure passed to {!Engine.schedule_at} would have had —
    but neither the push nor the firing allocates.

    {b Invariant:} pushes are monotone in time — a push's [time] is never
    earlier than the previous push's. Together with the per-push sequence
    number this makes firing order equal push order, which is what lets
    one closure stand for every entry. A push that breaks it raises
    [Invalid_argument]; events whose times can go backwards (a fault's
    extra delay, a reordered packet) belong on {!Engine.schedule}. *)

type 'a t

(** [create engine ~dummy] is a channel on [engine] with no handler yet;
    [dummy] fills vacated ring slots (see {!Ring}). *)
val create : Engine.t -> dummy:'a -> 'a t

(** [set_handler ch f]: each firing runs [f n x] on its entry. Set it
    before the first event fires — owners that the handler refers to
    usually build the channel first and install the handler once they
    exist. *)
val set_handler : 'a t -> (int -> 'a -> unit) -> unit

(** [push ch ~time n x] fires [f n x] at [time]. Raises [Invalid_argument]
    if [time] is before the previous push's time or before the engine's
    current time. *)
val push : 'a t -> time:int -> int -> 'a -> unit

(** Entries pushed and not yet fired. *)
val length : 'a t -> int
