(* Host monotonic clock in nanoseconds, read without allocating: the stub
   ships with bechamel's monotonic_clock library (CLOCK_MONOTONIC). *)
external raw : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (raw ())
