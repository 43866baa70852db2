(* Benchmark entry point. Usage:

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   prints the run's notes and, as its last line, one JSON object with
   [correct], [attempted], [failed] and [metrics]; exits 1 if any output
   check failed. [--setup-only] builds and warms the workload, prints
   [setup_s <seconds>] and exits (the run measures set-up in fresh
   processes this way). [--scale] and [--setup-repeats] shrink a run for
   the benchmark's own tests. *)

let start_ns = Perfbench.Clock.now_ns ()

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and scale = ref 1.0 and setup_repeats = ref 5 in
  let setup_only = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--scale", Arg.Set_float scale, "F shrink simulated windows by F");
      ("--setup-repeats", Arg.Set_int setup_repeats, "N set-ups timed");
      ("--setup-only", Arg.Set setup_only, " time set-up only");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe";
  let w =
    match Perfbench.Workloads.find !workload with
    | Some w -> w
    | None ->
        prerr_endline
          ("unknown workload; one of: "
          ^ String.concat ", "
              (List.map (fun w -> w.Perfbench.Workloads.name) Perfbench.Workloads.all));
        exit 2
  in
  let o =
    {
      Perfbench.Bench.workload = w;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      scale = !scale;
      setup_repeats = max 1 !setup_repeats;
    }
  in
  if !setup_only then begin
    let _, _, s = Perfbench.Bench.setup o ~start_ns in
    Printf.printf "setup_s %.9f\n" s
  end
  else begin
    let r =
      if o.trace then Perfbench.Bench.run_traced o ~start_ns
      else Perfbench.Bench.run_e2e o ~start_ns
    in
    List.iter print_endline r.notes;
    List.iter
      (fun (x : Perfbench.Bench.metric) ->
        Printf.printf "%-44s %14.4f %s\n" x.name x.value x.unit_)
      r.metrics;
    print_endline (Perfbench.Bench.to_json r);
    if not r.correct then exit 1
  end
