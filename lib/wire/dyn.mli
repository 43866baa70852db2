(** Dynamic messages: descriptor-driven in-memory objects.

    The OCaml analogue of the structs the Cornflakes compiler generates from
    a schema (Listing 1): typed setters/getters keyed by field name, repeated
    fields as lists, nested messages. All serializers (Cornflakes and the
    baselines) operate on [Dyn.t]. *)

type value =
  | Int of int64 (* all scalar ints/bools; width comes from the schema *)
  | Float of float
  | Payload of Payload.t (* bytes/string *)
  | Nested of t
  | List of value list (* repeated field contents, in order *)

and t

exception Type_error of string

val create : Schema.Desc.message -> t

val desc : t -> Schema.Desc.message

(** [set t name v] sets a field; checks the value kind against the schema
    ([Type_error] on mismatch). Repeated fields take a [List]. *)
val set : t -> string -> value -> unit

val get : t -> string -> value option

val clear_field : t -> string -> unit

(** [append t name v] appends an element to a repeated field. *)
val append : t -> string -> value -> unit

(* Conveniences. *)

val set_int : t -> string -> int64 -> unit

val get_int : t -> string -> int64 option

val set_payload : t -> string -> Payload.t -> unit

val get_payload : t -> string -> Payload.t option

val set_string : t -> Mem.Addr_space.t -> string -> string -> unit

val get_list : t -> string -> value list

(** Fields present, in schema (field-number) order. *)
val iter_present : t -> (int -> Schema.Desc.field -> value -> unit) -> unit

(** Raw slot array, indexed by schema field position. For specialized
    serializers (codegen-folded writers) that avoid the per-field closure of
    {!iter_present}; treat as read-only. *)
val raw_values : t -> value option array

(** [raw_field t i] is slot [i] (schema field position), unchecked. *)
val raw_field : t -> int -> value option

val present_count : t -> int

(** Sum of the byte lengths of all payloads, recursively. *)
val payload_bytes : t -> int

(** Release every [Zero_copy] payload reference, recursively. Call when the
    message will no longer be read (e.g. after the response is handed to the
    stack, which holds its own references). *)
val release : ?cpu:Memmodel.Cpu.t -> t -> unit

(** [release] for one value outside a message. *)
val release_value : ?cpu:Memmodel.Cpu.t -> value -> unit

(** [clear t] blanks every field so the object can be rebuilt in place
    (pooled per endpoint instead of allocated per request). Does NOT release
    payload references — use it when ownership already moved (e.g. the stack
    took the zero-copy refs at send). *)
val clear : t -> unit

(** [reset ?cpu t] = [release] then [clear]: drop any payload references the
    message still owns, then blank it for reuse. *)
val reset : ?cpu:Memmodel.Cpu.t -> t -> unit

(** [map_payloads t f] rewrites every payload in place (depth-first, field
    order) — used to demote zero-copy entries when a message exceeds the
    NIC's gather limit. *)
val map_payloads : t -> (Payload.t -> Payload.t) -> unit

(** Payloads in serialization traversal order (depth-first, field order). *)
val fold_payloads : t -> init:'a -> f:('a -> Payload.t -> 'a) -> 'a

(** Structural equality of contents (payload bytes compared by value);
    for tests. *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
