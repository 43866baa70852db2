(* A FIFO of pending entries plus the one closure every one of their
   events runs. Because pushes are monotone in time and each push takes the
   engine's next sequence number, the channel's events fire in push order:
   the k-th firing of [fire] belongs to the k-th push, so it only has to
   take the ring's front entry. *)

type 'a t = {
  engine : Engine.t;
  pending : 'a Ring.t;
  mutable last : int; (* time of the latest push *)
  mutable handler : int -> 'a -> unit;
  fire : unit -> unit;
}

let unset _ _ = invalid_arg "Chan: event fired before set_handler"

let fire t =
  let n = Ring.peek_int t.pending and x = Ring.peek t.pending in
  Ring.drop t.pending;
  t.handler n x
[@@alloc_free]

let create engine ~dummy =
  let pending = Ring.create ~dummy in
  let rec t =
    {
      engine;
      pending;
      last = min_int;
      handler = unset;
      fire = (fun () -> fire t);
    }
  in
  t

let set_handler t f = t.handler <- f

let push t ~time n x =
  if time < t.last then
    invalid_arg
      (Printf.sprintf "Chan.push: time %d is before the previous push at %d"
         time t.last);
  Engine.schedule_at t.engine ~time t.fire;
  Ring.push t.pending n x;
  t.last <- time
[@@alloc_free]

let length t = Ring.length t.pending
