(** The custom key-value store from the paper's evaluation (§6.1.2).

    Keys are strings; values are single pinned buffers, linked lists of
    pinned buffers, or vectors of pinned buffers. The store owns one
    reference on every buffer it holds; [put] swaps pointers and releases
    the old value (never updates in place), which is what makes the store
    compatible with Cornflakes' zero-copy safety model (§4.1). Every app's
    put path goes through [put_copy], which copies the incoming bytes into
    fresh pinned buffers and only then swaps them in.

    Cost model: the hash table's buckets and entry records live in the
    simulated address space, so a [get] pays a hash, a bucket-line access, an
    entry-line access and a key compare — misses included, which is how the
    "working set larger than L3" experiments get their cache pressure. *)

type value =
  | Single of Mem.Pinned.Buf.t
  | Linked of Mem.Pinned.Buf.t list
  | Vector of Mem.Pinned.Buf.t array

type t

(** [create space ~name ~capacity] sizes the bucket array and entry-metadata
    region for about [capacity] keys. *)
val create : Mem.Addr_space.t -> name:string -> capacity:int -> t

val size : t -> int

(** [put ?cpu t ~key value] installs [value] (taking ownership of the
    caller's references) and releases any previous value. *)
val put : ?cpu:Memmodel.Cpu.t -> t -> key:string -> value -> unit

(** [put_copy ?cpu t ~pool ~key srcs] is the allocate-and-swap put: each
    source view is copied into a fresh buffer from [pool], and the copies
    are installed under [key] as one value ([Single] for one buffer,
    [Linked] for several). A source whose size class is exhausted is
    skipped, as a cache drops writes under eviction pressure. Returns
    [false], leaving any old value in place, when no source could be
    copied. *)
val put_copy :
  ?cpu:Memmodel.Cpu.t ->
  t ->
  pool:Mem.Pinned.Pool.t ->
  key:string ->
  Mem.View.t list ->
  bool

(** [get ?cpu t ~key] returns the live value; the store retains ownership
    (callers wanting to keep buffers across a later [put] must take their
    own reference, e.g. via CFPtr construction). *)
val get : ?cpu:Memmodel.Cpu.t -> t -> key:string -> value option

(** [remove ?cpu t ~key] deletes the entry and releases its buffers. *)
val remove : ?cpu:Memmodel.Cpu.t -> t -> key:string -> unit

(** Buffers of a value, in order (list/vector flattened). *)
val buffers : value -> Mem.Pinned.Buf.t list

(** Total payload bytes of a value. *)
val value_len : value -> int
