(* In-memory span recorder for the traced run.

   Spans nest on one stack (the simulation is single-threaded, so every
   layer call made while a span is open is its child). Each span carries
   the request id it serves, host and simulated start/end times and its
   parent. Closing a span folds its self time (duration minus the part
   its children cover) and self minor words into per-layer aggregates;
   spans of sampled request ids are also kept for the Chrome export.
   Everything lives in preallocated arrays, so recording allocates
   nothing and the words charged to a layer are the layer's own. *)

type layer =
  | Workload_next
  | Send_next
  | Tr_send_client
  | Tr_send_server
  | Backend_recv
  | Backend_wrap
  | Backend_send
  | Parse_id

let layers =
  [ Workload_next; Send_next; Tr_send_client; Tr_send_server; Backend_recv;
    Backend_wrap; Backend_send; Parse_id ]

let index = function
  | Workload_next -> 0
  | Send_next -> 1
  | Tr_send_client -> 2
  | Tr_send_server -> 3
  | Backend_recv -> 4
  | Backend_wrap -> 5
  | Backend_send -> 6
  | Parse_id -> 7

let name = function
  | Workload_next -> "workload.next"
  | Send_next -> "apps.send_next"
  | Tr_send_client -> "net.transport.send.client"
  | Tr_send_server -> "net.transport.send.server"
  | Backend_recv -> "apps.backend.recv"
  | Backend_wrap -> "apps.backend.wrap"
  | Backend_send -> "apps.backend.send"
  | Parse_id -> "apps.parse_id"

let n_layers = List.length layers

let names = Array.of_list (List.map name layers)

let max_depth = 16

(* Spans kept for the Chrome export: request ids divisible by
   [sample_every], up to [export_cap] spans. *)
let export_cap = 50_000

type t = {
  mutable on : bool;
  mutable engine : Sim.Engine.t option;
  sample_every : int;
  (* open-span stack *)
  st_layer : int array;
  st_id : int array;
  st_h0 : int array;
  st_s0 : int array;
  st_child_ns : int array;
  st_w0 : float array;
  st_child_w : float array;
  mutable depth : int;
  (* per-layer aggregates *)
  calls : int array;
  self_ns : int array;
  self_words : float array;
  mutable root_ns : int; (* summed duration of outermost spans *)
  (* Chrome export, struct of arrays *)
  ex_layer : int array;
  ex_parent : int array;
  ex_id : int array;
  ex_h0 : int array;
  ex_h1 : int array;
  ex_s0 : int array;
  ex_s1 : int array;
  mutable ex_n : int;
}

let create ?(sample_every = 64) () =
  {
    on = false;
    engine = None;
    sample_every;
    st_layer = Array.make max_depth 0;
    st_id = Array.make max_depth 0;
    st_h0 = Array.make max_depth 0;
    st_s0 = Array.make max_depth 0;
    st_child_ns = Array.make max_depth 0;
    st_w0 = Array.make max_depth 0.0;
    st_child_w = Array.make max_depth 0.0;
    depth = 0;
    calls = Array.make n_layers 0;
    self_ns = Array.make n_layers 0;
    self_words = Array.make n_layers 0.0;
    root_ns = 0;
    ex_layer = Array.make export_cap 0;
    ex_parent = Array.make export_cap 0;
    ex_id = Array.make export_cap 0;
    ex_h0 = Array.make export_cap 0;
    ex_h1 = Array.make export_cap 0;
    ex_s0 = Array.make export_cap 0;
    ex_s1 = Array.make export_cap 0;
    ex_n = 0;
  }

let set_engine t e = t.engine <- Some e

let set_on t on = t.on <- on

let is_on t = t.on

let sim_now t = match t.engine with Some e -> Sim.Engine.now e | None -> 0

let enter t layer ~id =
  if t.on then begin
    let d = t.depth in
    if d >= max_depth then invalid_arg "Spans.enter: nesting too deep";
    t.st_layer.(d) <- index layer;
    t.st_id.(d) <- id;
    t.st_s0.(d) <- sim_now t;
    t.st_child_ns.(d) <- 0;
    t.st_child_w.(d) <- 0.0;
    t.depth <- d + 1;
    (* Clock reads last, so the span's own bookkeeping stays outside it. *)
    t.st_w0.(d) <- Gc.minor_words ();
    t.st_h0.(d) <- Clock.now_ns ()
  end

(* The server learns a request's id only once it has decoded it. *)
let set_id t id = if t.on && t.depth > 0 then t.st_id.(t.depth - 1) <- id

let leave t =
  if t.on then begin
    let h1 = Clock.now_ns () in
    let w1 = Gc.minor_words () in
    let d = t.depth - 1 in
    if d < 0 then invalid_arg "Spans.leave: no open span";
    t.depth <- d;
    let dur = h1 - t.st_h0.(d) in
    let words = w1 -. t.st_w0.(d) in
    let l = t.st_layer.(d) in
    t.calls.(l) <- t.calls.(l) + 1;
    t.self_ns.(l) <- t.self_ns.(l) + (dur - t.st_child_ns.(d));
    t.self_words.(l) <- t.self_words.(l) +. (words -. t.st_child_w.(d));
    if d = 0 then t.root_ns <- t.root_ns + dur
    else begin
      t.st_child_ns.(d - 1) <- t.st_child_ns.(d - 1) + dur;
      t.st_child_w.(d - 1) <- t.st_child_w.(d - 1) +. words
    end;
    let id = t.st_id.(d) in
    if id >= 0 && id mod t.sample_every = 0 && t.ex_n < export_cap then begin
      let i = t.ex_n in
      t.ex_layer.(i) <- l;
      t.ex_parent.(i) <- (if d = 0 then -1 else t.st_layer.(d - 1));
      t.ex_id.(i) <- id;
      t.ex_h0.(i) <- t.st_h0.(d);
      t.ex_h1.(i) <- h1;
      t.ex_s0.(i) <- t.st_s0.(d);
      t.ex_s1.(i) <- sim_now t;
      t.ex_n <- i + 1
    end
  end

type totals = {
  calls : int array;
  self_ns : int array;
  self_words : float array;
  root_ns : int;
}

let totals (t : t) =
  {
    calls = Array.copy t.calls;
    self_ns = Array.copy t.self_ns;
    self_words = Array.copy t.self_words;
    root_ns = t.root_ns;
  }

let diff (a : totals) (b : totals) =
  {
    calls = Array.mapi (fun i x -> x - a.calls.(i)) b.calls;
    self_ns = Array.mapi (fun i x -> x - a.self_ns.(i)) b.self_ns;
    self_words = Array.mapi (fun i x -> x -. a.self_words.(i)) b.self_words;
    root_ns = b.root_ns - a.root_ns;
  }

let add (a : totals) (b : totals) =
  {
    calls = Array.mapi (fun i x -> x + a.calls.(i)) b.calls;
    self_ns = Array.mapi (fun i x -> x + a.self_ns.(i)) b.self_ns;
    self_words = Array.mapi (fun i x -> x +. a.self_words.(i)) b.self_words;
    root_ns = b.root_ns + a.root_ns;
  }

let zero =
  {
    calls = Array.make n_layers 0;
    self_ns = Array.make n_layers 0;
    self_words = Array.make n_layers 0.0;
    root_ns = 0;
  }

(* Chrome trace-event JSON ("X" complete events, microsecond timestamps).
   Client-side layers go on thread 1, server-side layers on thread 2. *)
let write_chrome t path =
  let oc = open_out path in
  let base = ref max_int in
  for i = 0 to t.ex_n - 1 do
    base := min !base t.ex_h0.(i)
  done;
  let base = !base in
  output_string oc "{\"traceEvents\":[\n";
  for i = 0 to t.ex_n - 1 do
    let l = t.ex_layer.(i) in
    let tid =
      match List.nth layers l with
      | Workload_next | Send_next | Tr_send_client | Parse_id -> 1
      | Tr_send_server | Backend_recv | Backend_wrap | Backend_send -> 2
    in
    Printf.fprintf oc
      "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d,\"parent\":%S,\"sim_start_ns\":%d,\"sim_end_ns\":%d}}\n"
      (if i = 0 then "" else ",")
      names.(l) tid
      (float_of_int (t.ex_h0.(i) - base) /. 1e3)
      (float_of_int (t.ex_h1.(i) - t.ex_h0.(i)) /. 1e3)
      t.ex_id.(i)
      (if t.ex_parent.(i) < 0 then "" else names.(t.ex_parent.(i)))
      t.ex_s0.(i) t.ex_s1.(i)
  done;
  output_string oc "]}\n";
  close_out oc
