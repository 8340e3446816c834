(* Measurement process of the repository benchmark: runs one workload
   for a time budget and writes its raw measurements as JSON.  run.py
   starts it, turns the measurements into metrics and checks them; see
   README.md.

     bench.exe --workload W --seed N --seconds S --trace 0|1 --t0 T
               --out FILE [--spans FILE] [--setup-only]

   [--t0] is the wall-clock time at which the caller started this
   process: set-up time is measured from it. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let traced = ref false and t0 = ref (Unix.gettimeofday ()) in
  let out = ref "" and spans = ref "" and setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S time budget of the timed phase");
      ("--trace", Arg.Int (fun t -> traced := t <> 0), "0|1 record layer spans");
      ("--t0", Arg.Set_float t0, "T process start time (Unix seconds)");
      ("--out", Arg.Set_string out, "FILE where to write the measurements");
      ("--spans", Arg.Set_string spans, "FILE where to write the spans");
      ("--setup-only", Arg.Set setup_only, " stop before the first operation");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 --out FILE";
  if !out = "" then failwith "--out is required";
  let compile w =
    if !setup_only then begin
      ignore (Compile_bench.setup w);
      Minijson.obj [ ("setup_s", Minijson.float (Unix.gettimeofday () -. !t0)) ]
    end
    else
      Compile_bench.run w ~seed:!seed ~seconds:!seconds ~traced:!traced ~t0:!t0
  in
  let doc =
    match !workload with
    | "suite-paper" -> compile Compile_bench.suite_paper
    | "large-mesh16" -> compile Compile_bench.large_mesh16
    | "service-closed" ->
        Service_bench.run ~seed:!seed ~seconds:!seconds ~traced:!traced ~t0:!t0
          ~setup_only:!setup_only
    | w -> failwith ("unknown workload " ^ w)
  in
  Minijson.write_file !out doc;
  if !traced && !spans <> "" then Trace.write !spans
