(* Request bookkeeping and output checks.

   Every request the benchmark issues gets a run-wide id (the driver's
   per-call id plus the window's offset), so the checks hold across all
   windows of a run:

   - each id is answered at most once;
   - at the fixed rates, every id is answered by the time the engine
     drains (an SLO-search probe past capacity may lose requests);
   - for the kv workloads, a fixed 1-in-[every] sample of get responses
     must equal, byte for byte, what [Kvstore.Store.get] held for the
     requested key when the server decoded the request (the store swaps
     values on put and never edits them in place, so this is what the
     response must carry).

   The same records give the latency samples of the current window:
   a request is timed from when the open loop issued it (its due time)
   until its response reaches the client, drain included. *)

type t = {
  every : int;
  mutable issued_at : int array; (* sim ns at issue, by id; -1 = never *)
  mutable answers : Bytes.t; (* responses seen, by id (saturating) *)
  mutable next_id : int; (* one past the highest id issued *)
  mutable first_id : int; (* first id of the current window *)
  mutable sent : int;
  mutable answered : int;
  mutable duplicates : int;
  mutable unanswered : int;
  mutable checked : int;
  mutable mismatches : int;
  mutable store : Kvstore.Store.t option;
  expected : (int, string) Hashtbl.t; (* sampled id -> expected value bytes *)
  (* current window *)
  mutable warm_abs : int;
  mutable end_abs : int;
  mutable lat : int array;
  mutable n_lat : int;
  mutable in_window : int; (* requests issued in [warm_abs, end_abs) *)
  mutable done_by_end : int; (* ... of which answered by [end_abs] *)
  mutable resp_bytes : int; (* response message bytes of in-window requests *)
  (* Test hook: mangle a response before it is read. *)
  mutable corrupt : (Mem.Pinned.Buf.t -> unit) option;
}

let create ?(every = 64) () =
  {
    every;
    issued_at = Array.make 65536 (-1);
    answers = Bytes.make 65536 '\000';
    next_id = 1;
    first_id = 1;
    sent = 0;
    answered = 0;
    duplicates = 0;
    unanswered = 0;
    checked = 0;
    mismatches = 0;
    store = None;
    expected = Hashtbl.create 1024;
    warm_abs = 0;
    end_abs = 0;
    lat = Array.make 65536 0;
    n_lat = 0;
    in_window = 0;
    done_by_end = 0;
    resp_bytes = 0;
    corrupt = None;
  }

let set_store t s = t.store <- Some s

let grow t id =
  let n = Array.length t.issued_at in
  if id >= n then begin
    let m = max (2 * n) (id + 1) in
    let a = Array.make m (-1) in
    Array.blit t.issued_at 0 a 0 n;
    t.issued_at <- a;
    let b = Bytes.make m '\000' in
    Bytes.blit t.answers 0 b 0 n;
    t.answers <- b
  end

(* A window's driver ids run from 1; [offset] maps them onto run-wide ids. *)
let begin_window t ~warm_abs ~end_abs =
  t.warm_abs <- warm_abs;
  t.end_abs <- end_abs;
  t.n_lat <- 0;
  t.in_window <- 0;
  t.done_by_end <- 0;
  t.resp_bytes <- 0;
  t.first_id <- t.next_id;
  t.next_id - 1

let on_send t ~id ~now =
  grow t id;
  t.issued_at.(id) <- now;
  t.sent <- t.sent + 1;
  if id >= t.next_id then t.next_id <- id + 1;
  if now >= t.warm_abs && now < t.end_abs then t.in_window <- t.in_window + 1

let value_bytes value =
  String.concat ""
    (List.map
       (fun b -> Mem.View.to_string (Mem.Pinned.Buf.view b))
       (Kvstore.Store.buffers value))

let get_key key_payload =
  match key_payload with
  | Wire.Dyn.Payload p -> Some (Wire.Payload.to_string p)
  | _ -> None

(* Server side, right after the request is decoded: snapshot the expected
   value of a sampled get. *)
let on_server_request t ~id req =
  match t.store with
  | Some store when id > 0 && id mod t.every = 0 -> (
      let keys = List.filter_map get_key (Wire.Dyn.get_list req "keys") in
      let op = Wire.Dyn.get_int req "op" in
      if op = Some Apps.Proto.op_get then
        Hashtbl.replace t.expected id
          (String.concat ""
             (List.map
                (fun key ->
                  match Kvstore.Store.get store ~key with
                  | Some v -> value_bytes v
                  | None -> "")
                keys))
      else if op = Some Apps.Proto.op_get_index then
        match (keys, Wire.Dyn.get_int req "index") with
        | [ key ], Some i -> (
            let i = Int64.to_int i in
            match Kvstore.Store.get store ~key with
            | Some (Kvstore.Store.Vector arr) when i < Array.length arr ->
                Hashtbl.replace t.expected id
                  (Mem.View.to_string (Mem.Pinned.Buf.view arr.(i)))
            | Some _ | None -> Hashtbl.replace t.expected id "")
        | _ -> ())
  | _ -> ()

let before_response t buf =
  match t.corrupt with Some f -> f buf | None -> ()

(* Client side, once the response's id is known. [decode buf] yields the
   concatenated value bytes; it runs only for sampled gets. *)
let on_response t ~id ~now ~buf ~decode =
  let len = Mem.Pinned.Buf.len buf in
  if id <= 0 || id >= Array.length t.issued_at || t.issued_at.(id) < 0 then
    (* An id we never issued: count it as a corrupted answer. *)
    t.mismatches <- t.mismatches + 1
  else begin
    let seen = Char.code (Bytes.get t.answers id) in
    if seen > 0 then t.duplicates <- t.duplicates + 1
    else begin
      t.answered <- t.answered + 1;
      let at = t.issued_at.(id) in
      if at >= t.warm_abs && at < t.end_abs then begin
        if t.n_lat = Array.length t.lat then begin
          let a = Array.make (2 * t.n_lat) 0 in
          Array.blit t.lat 0 a 0 t.n_lat;
          t.lat <- a
        end;
        t.lat.(t.n_lat) <- now - at;
        t.n_lat <- t.n_lat + 1;
        t.resp_bytes <- t.resp_bytes + len;
        if now <= t.end_abs then t.done_by_end <- t.done_by_end + 1
      end
    end;
    Bytes.set t.answers id (Char.chr (min 255 (seen + 1)));
    match Hashtbl.find_opt t.expected id with
    | None -> ()
    | Some want ->
        Hashtbl.remove t.expected id;
        t.checked <- t.checked + 1;
        let got = try Some (decode buf) with _ -> None in
        if got <> Some want then t.mismatches <- t.mismatches + 1
  end

(* After the engine drained: ids of the current window, warm-up included,
   that never got an answer, and those of them issued in the measured part. *)
let window_unanswered t =
  let missing = ref 0 and measured = ref 0 in
  for id = t.first_id to t.next_id - 1 do
    let at = t.issued_at.(id) in
    if at >= 0 && Bytes.get t.answers id = '\000' then begin
      incr missing;
      if at >= t.warm_abs && at < t.end_abs then incr measured
    end
  done;
  (!missing, !measured)

(* Latency samples of the current window, sorted. *)
let window_latencies t =
  let a = Array.sub t.lat 0 t.n_lat in
  Array.sort compare a;
  a

let add_unanswered t n = t.unanswered <- t.unanswered + n

let violations t = t.duplicates + t.mismatches + t.unanswered

let summary t =
  Printf.sprintf
    "checks: sent=%d answered=%d duplicates=%d unanswered=%d sampled_gets=%d mismatches=%d"
    t.sent t.answered t.duplicates t.unanswered t.checked t.mismatches
