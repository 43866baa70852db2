(** Bechamel microbenchmarks of the serializer hot paths, run by
    the `cornflakes_cli bench` subcommand.

    ns/op comes from Bechamel (always measured serially), minor words/op
    from a counted [Gc.minor_words] loop (parallelized across pool jobs
    when the process-wide [Par.Pool.default_jobs] width is > 1 — each job
    measures one benchmark on a fresh suite instance, so results are
    identical at any width). *)

(** [run ~quick ~seed ~json ~baseline] measures every benchmark and prints
    the table. With [json] it writes [BENCH_micro.json]. With
    [baseline = Some path] it gates against that committed baseline: ns/op
    is then the minimum of three wall-clock passes per benchmark (timing
    noise is strictly additive, so the min is the stable statistic), and
    the process exits 1 if any tracked benchmark's minor words/op
    regressed more than 20%, or its ns/op regressed more than 20% after
    dividing out the median now/base ratio across tracked benches
    (machine-speed normalization). Words/op is deterministic and measured
    once. *)
val run :
  quick:bool -> seed:int -> json:bool -> baseline:string option -> unit
