(** Parallel map with a deterministic merge.

    [map ~jobs f arr] evaluates [f] over [arr] on [min jobs n] fresh
    domains that claim indices from one shared atomic counter, and returns
    the results in submission order: each result lands in the slot named
    by its index, so scheduling cannot reorder (or otherwise alter) the
    output. With [jobs <= 1], at most one element, or when called from
    inside a task, it is a plain serial [Array.map] on the calling domain.

    Tasks must be self-contained: build the engine, address space and RNG
    stream inside the task (seeded from its index, see [Sim.Rng.stream]),
    never capture them from the submitting domain.

    The submitting domain runs no task, so its domain-local state (RefSan
    ledger, serializer scratch) is untouched by a parallel run. Each task's
    RefSan ledger is folded into the process-wide totals when it finishes
    (see [Sanitizer.Refsan.checkpoint]). Every task runs; then the
    exception of the lowest-index failed task, if any, is re-raised on the
    submitting domain. *)

(** Process-wide default for [?jobs] (initially 1 = serial). *)
val set_default_jobs : int -> unit

val default_jobs : unit -> int

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [mapi_list f xs] — like [map_list], passing each task its submission
    index (e.g. to seed per-task [Sim.Rng.stream ~index] streams). *)
val mapi_list : ?jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list
