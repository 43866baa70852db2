(** Growable FIFO ring of [(int, 'a)] entries, held in two parallel arrays
    so that neither a push nor a pop builds a tuple or a list cell.

    Once the ring has grown to its high-water mark, {!push}, {!peek_int},
    {!peek} and {!drop} allocate nothing. A dropped entry's slot is
    refilled with the [dummy] given at creation, so the ring keeps no
    reference to entries it has handed out. *)

type 'a t

(** [create ~dummy] is an empty ring; [dummy] fills unused item slots and
    is never returned. *)
val create : dummy:'a -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push q n x] appends the entry [(n, x)] at the back. *)
val push : 'a t -> int -> 'a -> unit

(** The int of the front entry. Raises [Invalid_argument] when empty. *)
val peek_int : 'a t -> int

(** The item of the front entry. Raises [Invalid_argument] when empty. *)
val peek : 'a t -> 'a

(** [drop q] removes the front entry. Raises [Invalid_argument] when
    empty. *)
val drop : 'a t -> unit
