(** Integration tests: the full pipeline on real benchmarks, every
    method, with end-to-end verification (clustered interpretation,
    cycle simulation, model agreement), plus experiment-level sanity. *)

module Methods = Partition.Methods

let verify_bench ?(move_latency = 5) name =
  let b = Benchsuite.Suite.find name in
  let p = Gdp_core.Pipeline.prepare b in
  let machine = Vliw_machine.paper_machine ~move_latency () in
  let ctx = Gdp_core.Pipeline.context ~machine p in
  List.iter
    (fun m ->
      let e = Gdp_core.Pipeline.evaluate ctx m in
      match Gdp_core.Pipeline.verify p ctx e with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s/%s: %s" name (Methods.name m) msg)
    Methods.all

let test_verify_small_suite () =
  List.iter verify_bench [ "rawcaudio"; "fir"; "fsed" ]

let test_verify_float_bench () = verify_bench "iirflt"

let test_verify_latency_1 () = verify_bench ~move_latency:1 "rawdaudio"
let test_verify_latency_10 () = verify_bench ~move_latency:10 "sobel"

let test_all_benchmarks_interpret () =
  List.iter
    (fun (b : Benchsuite.Bench_intf.t) ->
      let p = Gdp_core.Pipeline.prepare b in
      Alcotest.(check bool)
        (b.Benchsuite.Bench_intf.name ^ " produces output")
        true
        (p.Gdp_core.Pipeline.reference.Vliw_interp.Interp.outputs <> []))
    Benchsuite.Suite.all

let test_unified_is_strong_baseline () =
  (* partitioned-memory methods cannot beat unified by a large margin on
     average; allow the paper's observed >1 cases but bound them *)
  let b = Benchsuite.Suite.find "mpeg2dec" in
  let p = Gdp_core.Pipeline.prepare b in
  let ctx = Gdp_core.Pipeline.context p in
  let cycles m =
    (Gdp_core.Pipeline.evaluate ctx m).Gdp_core.Pipeline.report
      .Vliw_sched.Perf.total_cycles
  in
  let unified = cycles Methods.Unified in
  List.iter
    (fun m ->
      let c = cycles m in
      Alcotest.(check bool)
        (Methods.name m ^ " within sane range")
        true
        (float c >= 0.65 *. float unified && float c <= 2.5 *. float unified))
    [ Methods.Gdp; Methods.Profile_max; Methods.Naive ]

let test_gdp_beats_naive_on_average () =
  let rows = Gdp_core.Experiments.run_all ~move_latency:5 () in
  let avg name =
    List.fold_left
      (fun acc r ->
        acc
        +. float (Gdp_core.Experiments.cycles_of r name)
           /. float (Gdp_core.Experiments.cycles_of r "unified"))
      0. rows
    /. float (List.length rows)
  in
  (* lower is better (cycles relative to unified) *)
  Alcotest.(check bool) "gdp < naive" true (avg "gdp" < avg "naive");
  Alcotest.(check bool) "gdp <= profile max (within 2%)" true
    (avg "gdp" <= avg "profile-max" +. 0.02)

let test_exhaustive_consistency () =
  let r = Gdp_core.Exhaustive.run (Benchsuite.Suite.find "fir") in
  (* best <= every point <= worst *)
  List.iter
    (fun (pt : Gdp_core.Exhaustive.point) ->
      Alcotest.(check bool) "within envelope" true
        (r.Gdp_core.Exhaustive.best.cycles <= pt.cycles
        && pt.cycles <= r.Gdp_core.Exhaustive.worst.cycles))
    r.Gdp_core.Exhaustive.points;
  (* balance is in [0, 1] *)
  List.iter
    (fun (pt : Gdp_core.Exhaustive.point) ->
      Alcotest.(check bool) "balance range" true
        (pt.balance >= 0. && pt.balance <= 1.0001))
    r.Gdp_core.Exhaustive.points;
  (* the GDP and PM mappings appear among the points *)
  Alcotest.(check bool) "gdp point valid" true
    (r.Gdp_core.Exhaustive.gdp.cycles >= r.Gdp_core.Exhaustive.best.cycles)

let test_compile_time_ratio () =
  (* Both data-partitioning methods pay for work Naive skips: Profile Max
     runs the detailed partitioner and its profiling schedule twice (the
     two-run structure itself is asserted by [test_rhop_runs_metadata]),
     and GDP runs the multilevel graph partitioner on top of its single
     detailed pass.  Either must show up as partition-stage time well
     above Naive's on a non-trivial benchmark. *)
  let r =
    Gdp_core.Experiments.compile_time
      ~benches:[ Benchsuite.Suite.find "mpeg2dec" ]
      ()
  in
  match r.Gdp_core.Experiments.ct_rows with
  | [ (_, times) ] ->
      let t n = List.assoc n times in
      Alcotest.(check bool) "pm slower than naive" true
        (t "profile-max" > t "naive" *. 1.2);
      Alcotest.(check bool) "gdp slower than naive" true
        (t "gdp" > t "naive" *. 1.2)
  | _ -> Alcotest.fail "unexpected rows"

let test_rhop_runs_metadata () =
  let b = Benchsuite.Suite.find "fir" in
  let p = Gdp_core.Pipeline.prepare b in
  let ctx = Gdp_core.Pipeline.context p in
  let runs m = (Methods.run m ctx).Methods.rhop_runs in
  Alcotest.(check int) "gdp single run" 1 (runs Methods.Gdp);
  Alcotest.(check int) "profile max double run" 2 (runs Methods.Profile_max);
  Alcotest.(check int) "naive single run" 1 (runs Methods.Naive)

let test_four_cluster_machine () =
  let machine = Vliw_machine.scaled_machine ~clusters:4 ~move_latency:5 () in
  let b = Benchsuite.Suite.find "fir" in
  let p = Gdp_core.Pipeline.prepare b in
  let ctx = Gdp_core.Pipeline.context ~machine p in
  List.iter
    (fun m ->
      let e = Gdp_core.Pipeline.evaluate ctx m in
      match Gdp_core.Pipeline.verify p ctx e with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "4 clusters %s: %s" (Methods.name m) msg)
    [ Methods.Gdp; Methods.Unified ]

let prop_methods_on_random_programs =
  Helpers.qcheck ~count:25 "all methods verified on random programs"
    (fun seed ->
      let src = Gen_minic.gen_program_with_seed seed in
      let bench =
        {
          Benchsuite.Bench_intf.name = "random";
          description = "generated";
          source = src;
          input = Gen_minic.input;
          exhaustive_ok = false;
        }
      in
      let p = Gdp_core.Pipeline.prepare bench in
      let ctx = Gdp_core.Pipeline.context p in
      List.for_all
        (fun m ->
          let e = Gdp_core.Pipeline.evaluate ctx m in
          match Gdp_core.Pipeline.verify p ctx e with
          | Ok () -> true
          | Error _ -> false)
        Methods.all)
    Gen_minic.arbitrary_program

(* `gdpc compile` and `gdpc run` optimize through [Pipeline.optimize],
   so the CLI prints the program every other command compiles. *)
let test_gdpc_compile_matches_prepare () =
  let bench : Benchsuite.Bench_intf.t =
    {
      name = "dotprod";
      description = "";
      source = Dotprod_src.source;
      input = [| 1; 2; 3; 4; 5; 6; 7; 8 |];
      exhaustive_ok = false;
    }
  in
  let p = Gdp_core.Pipeline.prepare bench in
  Alcotest.(check string) "gdpc compile examples/dotprod.c"
    (Fmt.str "%a@." Vliw_ir.Prog.pp p.Gdp_core.Pipeline.prog)
    Gdpc_compile_dotprod.output

let suite =
  [
    Alcotest.test_case "gdpc compile prints the prepared program" `Quick
      test_gdpc_compile_matches_prepare;
    Alcotest.test_case "verify rawcaudio/fir/fsed, all methods" `Slow
      test_verify_small_suite;
    Alcotest.test_case "verify float benchmark" `Slow test_verify_float_bench;
    Alcotest.test_case "verify at 1-cycle latency" `Slow test_verify_latency_1;
    Alcotest.test_case "verify at 10-cycle latency" `Slow
      test_verify_latency_10;
    Alcotest.test_case "all benchmarks interpret" `Slow
      test_all_benchmarks_interpret;
    Alcotest.test_case "methods within sane range" `Slow
      test_unified_is_strong_baseline;
    Alcotest.test_case "gdp beats naive on average" `Slow
      test_gdp_beats_naive_on_average;
    Alcotest.test_case "exhaustive search consistency" `Slow
      test_exhaustive_consistency;
    Alcotest.test_case "compile-time ratio (section 4.5)" `Slow
      test_compile_time_ratio;
    Alcotest.test_case "rhop run counts" `Slow test_rhop_runs_metadata;
    Alcotest.test_case "four-cluster machine" `Slow test_four_cluster_machine;
    prop_methods_on_random_programs;
  ]
