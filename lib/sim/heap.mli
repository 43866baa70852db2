(** Array-backed 4-ary min-heap keyed by [(time, seq)].

    The event engine needs a stable priority queue: two events scheduled for
    the same instant must fire in scheduling order, so the key is the pair of
    the event time and a monotonically increasing sequence number.

    The heap order is kept in parallel flat int arrays — [time], [seq] and
    the slot of each entry's payload — while payloads stay in their slot
    from push to pop, so a sift moves only ints. {!push}, {!pop_into} and
    {!min_time} allocate nothing once the arrays have grown to the queue's
    high-water mark. A popped payload is no longer referenced by the heap:
    its slot is refilled with the [dummy] given at creation. *)

type 'a t

(** [create ~dummy] is an empty heap; [dummy] fills unused payload slots
    and is never returned. *)
val create : dummy:'a -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push heap ~time ~seq payload] inserts an element. *)
val push : 'a t -> time:int -> seq:int -> 'a -> unit

(** [pop_min heap] removes and returns the smallest element as
    [(time, seq, payload)], or [None] when the heap is empty. *)
val pop_min : 'a t -> (int * int * 'a) option

(** [pop_into heap f] removes the minimum element and applies
    [f time payload] — {!pop_min} without the per-event option/tuple, for
    the event-loop hot path. The heap is restructured before [f] runs, so
    [f] may {!push}. Returns [false] on an empty heap ([f] not called). *)
val pop_into : 'a t -> (int -> 'a -> unit) -> bool

(** [min_time heap] is the time of the minimum element. Raises
    [Invalid_argument] on an empty heap. *)
val min_time : 'a t -> int
