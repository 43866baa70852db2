type config = {
  timeout_ns : int;
  max_retries : int;
  backoff : float;
  jitter : float;
  reap_period_ns : int;
}

let default_config =
  { timeout_ns = 100_000; max_retries = 4; backoff = 2.0; jitter = 0.1; reap_period_ns = 250_000 }

(* One Hashtbl holds every outstanding call: id -> the caller's payload.
   Ids are never reused within a table, so membership alone says whether
   a call is still outstanding; a call's retry state (attempt count, send
   and give-up callbacks, deadline) rides in its timer closure. *)
type 'a t = {
  engine : Sim.Engine.t;
  retry : (config * Sim.Rng.t) option;
  pending : (int, 'a) Hashtbl.t;
  mutable next_id : int;
  mutable reaper : (unit -> unit) option;
  mutable reaper_armed : bool;
  mutable tracked : int;
  mutable retries : int;
  mutable timeouts : int;
  mutable give_ups : int;
  mutable abandoned : int;
  mutable acked : int;
  mutable dup_acks : int;
}

let check_config c =
  if c.timeout_ns <= 0 then invalid_arg "Reliab: timeout_ns must be positive";
  if c.max_retries < 0 then invalid_arg "Reliab: max_retries must be >= 0";
  if c.backoff < 1.0 then invalid_arg "Reliab: backoff must be >= 1";
  if not (c.jitter >= 0.0 && c.jitter <= 1.0) then invalid_arg "Reliab: jitter outside [0,1]";
  if c.reap_period_ns <= 0 then invalid_arg "Reliab: reap_period_ns must be positive"

let create ?retry engine =
  Option.iter (fun (c, _) -> check_config c) retry;
  {
    engine;
    retry;
    pending = Hashtbl.create 256;
    next_id = 1;
    reaper = None;
    reaper_armed = false;
    tracked = 0;
    retries = 0;
    timeouts = 0;
    give_ups = 0;
    abandoned = 0;
    acked = 0;
    dup_acks = 0;
  }

let outstanding t = Hashtbl.length t.pending

(* The reaper self-reschedules only while requests are outstanding, so an
   idle layer never keeps the engine's event loop alive. *)
let rec arm_reaper t =
  match (t.retry, t.reaper) with
  | Some (c, _), Some f when (not t.reaper_armed) && outstanding t > 0 ->
      t.reaper_armed <- true;
      Sim.Engine.schedule t.engine ~after:c.reap_period_ns (fun () ->
          t.reaper_armed <- false;
          f ();
          arm_reaper t)
  | _ -> ()

let set_reaper t f =
  if t.retry = None then invalid_arg "Reliab.set_reaper: table has no retry config";
  t.reaper <- Some f;
  arm_reaper t

let timeout_for (c, rng) ~attempts =
  let base = float_of_int c.timeout_ns *. (c.backoff ** float_of_int (attempts - 1)) in
  let jitter = 1.0 +. (c.jitter *. ((2.0 *. Sim.Rng.float rng) -. 1.0)) in
  max 1 (int_of_float (base *. jitter))

(* Resolve a call that ran out of retries or hit its deadline; a no-op if
   it was acked first. *)
let give_up_call t ~id ~give_up ~at_deadline =
  match Hashtbl.find t.pending id with
  | exception Not_found -> ()
  | v ->
      Hashtbl.remove t.pending id;
      t.give_ups <- t.give_ups + 1;
      if at_deadline then t.abandoned <- t.abandoned + 1;
      give_up v

let rec arm t retry ~id ~send ~give_up ~deadline ~attempts =
  let timeout = timeout_for retry ~attempts in
  let now = Sim.Engine.now t.engine in
  (* A deadline clamps the retry budget: a retransmission whose timer
     would fire at or past the deadline is never scheduled — the call
     instead resolves at the deadline itself, independent of jitter. *)
  match deadline with
  | Some d when now + timeout >= d ->
      Sim.Engine.schedule t.engine ~after:(max 1 (d - now)) (fun () ->
          give_up_call t ~id ~give_up ~at_deadline:true)
  | _ ->
      Sim.Engine.schedule t.engine ~after:timeout (fun () ->
          if Hashtbl.mem t.pending id then begin
            t.timeouts <- t.timeouts + 1;
            if attempts > (fst retry).max_retries then
              give_up_call t ~id ~give_up ~at_deadline:false
            else begin
              t.retries <- t.retries + 1;
              send id;
              arm t retry ~id ~send ~give_up ~deadline ~attempts:(attempts + 1)
            end
          end)

let call ?deadline_ns t v ~send ~give_up =
  (match deadline_ns with
  | Some d when d <= 0 -> invalid_arg "Reliab.call: deadline_ns must be positive"
  | _ -> ());
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.add t.pending id v;
  t.tracked <- t.tracked + 1;
  send id;
  (match (t.retry, deadline_ns) with
  | None, None -> ()
  | None, Some d ->
      Sim.Engine.schedule t.engine ~after:d (fun () ->
          give_up_call t ~id ~give_up ~at_deadline:true)
  | Some retry, _ ->
      let deadline = Option.map (fun d -> Sim.Engine.now t.engine + d) deadline_ns in
      arm t retry ~id ~send ~give_up ~deadline ~attempts:1;
      arm_reaper t);
  id

let find t id = Hashtbl.find t.pending id

let ack t id =
  match Hashtbl.find t.pending id with
  | v ->
      Hashtbl.remove t.pending id;
      t.acked <- t.acked + 1;
      v
  | exception Not_found ->
      t.dup_acks <- t.dup_acks + 1;
      raise Not_found

let tracked t = t.tracked

let retries t = t.retries

let timeouts t = t.timeouts

let give_ups t = t.give_ups

let abandoned t = t.abandoned

let acked t = t.acked

let dup_acks t = t.dup_acks
