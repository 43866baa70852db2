type t = {
  mutable now : int;
  mutable seq : int;
  heap : (unit -> unit) Heap.t;
  mutable quiesce_hooks : (unit -> unit) list; (* run when the queue drains *)
  fire_one : int -> (unit -> unit) -> unit; (* [fire t], built once *)
}

let noop () = ()

let fire t time f =
  t.now <- time;
  f ()

let create () =
  let heap = Heap.create ~dummy:noop in
  let rec t =
    {
      now = 0;
      seq = 0;
      heap;
      quiesce_hooks = [];
      fire_one = (fun time f -> fire t time f);
    }
  in
  t

let now t = t.now

let schedule_at t ~time f =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is before now %d" time t.now);
  t.seq <- t.seq + 1;
  Heap.push t.heap ~time ~seq:t.seq f
[@@alloc_free]

let schedule t ~after f =
  if after < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.now + after) f

let run t ~until =
  while (not (Heap.is_empty t.heap)) && Heap.min_time t.heap <= until do
    ignore (Heap.pop_into t.heap t.fire_one)
  done;
  if t.now < until then t.now <- until
[@@alloc_free]

let run_all t =
  while Heap.pop_into t.heap t.fire_one do
    ()
  done
[@@alloc_free]

let pending t = Heap.length t.heap

let add_quiesce_hook t f = t.quiesce_hooks <- t.quiesce_hooks @ [ f ]

let quiesce t =
  run_all t;
  List.iter (fun f -> f ()) t.quiesce_hooks
