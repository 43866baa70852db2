(* Parallel map over one shared atomic index.

   A batch of [n] tasks spawns [min jobs n] domains. Each claims the next
   unclaimed index with [Atomic.fetch_and_add] and writes its result into
   the slot of that index, so an uneven batch (figure configs vary 100x in
   cost) finishes at the speed of its slowest task, and scheduling never
   shows in the output: the merge reads slots in index order. The
   submitting domain only joins, so its domain-local state (RefSan ledger,
   send scratch) is left exactly as serial execution would leave it.

   Nesting: a task that itself calls [map] runs the inner batch inline on
   its domain (the [in_worker] flag), inheriting the outer task's
   domain-local state, which is exactly the serial semantics. *)

let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let default = Atomic.make 1

let set_default_jobs n =
  if n < 1 then invalid_arg "Par.Pool.set_default_jobs: jobs < 1";
  Atomic.set default n

let default_jobs () = Atomic.get default

type 'b slot = Empty | Done of 'b | Failed of exn * Printexc.raw_backtrace

let map ?jobs f arr =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let n = Array.length arr in
  if jobs <= 1 || n <= 1 || Domain.DLS.get in_worker then Array.map f arr
  else begin
    let slots = Array.make n Empty in
    let next = Atomic.make 0 in
    let rec claim () =
      let k = Atomic.fetch_and_add next 1 in
      if k < n then begin
        (slots.(k) <-
           try Done (f arr.(k))
           with e -> Failed (e, Printexc.get_raw_backtrace ()));
        (* Fold this task's domain-local RefSan ledger into the process
           totals, so the end-of-run grand total covers every task. *)
        if Sanitizer.Refsan.is_enabled () then Sanitizer.Refsan.checkpoint ();
        claim ()
      end
    in
    let worker () =
      Domain.DLS.set in_worker true;
      claim ()
    in
    Array.iter Domain.join (Array.init (min jobs n) (fun _ -> Domain.spawn worker));
    (* Every task has run; the lowest-index failure is re-raised, as a
       serial [Array.map] would raise it. *)
    Array.map
      (function
        | Done y -> y
        | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
        | Empty -> failwith "Par.Pool.map: missing result")
      slots
  end

let map_list ?jobs f xs = Array.to_list (map ?jobs f (Array.of_list xs))

let mapi_list ?jobs f xs =
  map_list ?jobs (fun (i, x) -> f i x) (List.mapi (fun i x -> (i, x)) xs)
