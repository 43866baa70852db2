(** Discrete-event simulation engine.

    Time is an [int] count of nanoseconds since simulation start. Events are
    closures executed at their scheduled instant; events scheduled for the
    same instant run in scheduling order. The whole reproduction — NIC DMA,
    packet flight, CPU service completion, client arrivals — is driven by one
    engine instance, which makes every experiment deterministic. *)

type t

val create : unit -> t

(** [now t] is the current simulated time in nanoseconds. *)
val now : t -> int

(** [schedule t ~after f] runs [f ()] at [now t + after] ns. [after] must be
    non-negative. *)
val schedule : t -> after:int -> (unit -> unit) -> unit

(** [schedule_at t ~time f] runs [f ()] at absolute [time], which must not be
    in the past. The event takes the next sequence number, which orders it
    after every event already scheduled for the same instant. Scheduling
    allocates nothing beyond [f] itself: a caller that schedules one
    long-lived closure (see {!Chan}) adds no heap words per event. *)
val schedule_at : t -> time:int -> (unit -> unit) -> unit

(** [run t ~until] executes events in [(time, seq)] order until the queue
    is empty or the next event is after [until]; the clock finishes at
    [until] or at the last event time, whichever is larger. A fired event's
    closure is no longer referenced by the queue once it runs. *)
val run : t -> until:int -> unit

(** [run_all t] drains the event queue completely. *)
val run_all : t -> unit

(** [pending t] is the number of queued events. *)
val pending : t -> int

(** [add_quiesce_hook t f] registers [f] to run at {!quiesce}, after the
    event queue has drained — e.g. end-of-run invariant checks such as the
    RefSan leak report. Hooks run in registration order. *)
val add_quiesce_hook : t -> (unit -> unit) -> unit

(** [quiesce t] drains the queue ({!run_all}) and then runs the registered
    quiesce hooks. *)
val quiesce : t -> unit
