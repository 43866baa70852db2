(** Minimal fixed-width table printer for bench output.

    Every experiment run by [cornflakes_cli] prints its paper table/figure series
    through this module so the output is uniform and easy to diff against
    EXPERIMENTS.md. *)

type t

(** [create ~title ~columns] starts a table with the given column headers. *)
val create : title:string -> columns:string list -> t

val add_row : t -> string list -> unit

(** Render with columns padded to their widest cell. *)
val print : t -> unit

val to_string : t -> string
