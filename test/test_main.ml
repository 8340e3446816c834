(* Test runner: one Alcotest section per library. *)

let () =
  Alcotest.run "gdp"
    [
      ("machine", Test_machine.suite);
      ("topology", Test_topology.suite);
      ("ir", Test_ir.suite);
      ("minic", Test_minic.suite);
      ("interp", Test_interp.suite);
      ("engines", Test_engines.suite);
      ("analysis", Test_analysis.suite);
      ("graphpart", Test_graphpart.suite);
      ("opt", Test_opt.suite);
      ("sched", Test_sched.suite);
      ("partition", Test_partition.suite);
      ("pipeline", Test_pipeline.suite);
      ("telemetry", Test_telemetry.suite);
      ("attrib", Test_attrib.suite);
      ("robust", Test_robust.suite);
      ("exec", Test_exec.suite);
      ("service", Test_service.suite);
    ]
