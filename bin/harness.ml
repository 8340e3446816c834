(* The paper's evaluation, behind `gdpc experiment` and `gdpc gate`:
   every table and figure of Chu & Mahlke (CGO 2006), a bechamel timing
   of the partitioning passes, and the regression gates that diff a
   fresh run against the committed BENCH_*.json baselines.  Cmdliner
   stays in gdpc.ml; this module only runs and renders. *)

open Gdp_core

let ppf = Fmt.stdout

let performance ~figure_name move_latency () =
  Experiments.render_performance ppf
    (Experiments.performance ~move_latency ())
    ~figure_name

let fig9 which () =
  Exhaustive.render ppf (Exhaustive.run (Benchsuite.Suite.find which))

(** [(name, standard-sweep latencies it renders from, render)].  With
    [-j] the sweep latencies of the requested experiments are prefetched
    through the process pool up front, so the figures render from cache
    hits; the scenario matrix (a 6-machine sweep, much wider than any
    single figure) fans its own cells over the same pool width. *)
let experiments ~jobs : (string * int list * (unit -> unit)) list =
  [
    ("table1", [], fun () -> Experiments.render_table1 ppf ());
    ( "fig2",
      [ 1; 5; 10 ],
      fun () -> Experiments.render_figure2 ppf (Experiments.figure2 ()) );
    ("fig7", [ 1 ], performance ~figure_name:"Figure 7" 1);
    ("fig8a", [ 5 ], performance ~figure_name:"Figure 8(a)" 5);
    ("fig8b", [ 10 ], performance ~figure_name:"Figure 8(b)" 10);
    ("fig9a", [], fig9 "rawcaudio");
    ("fig9b", [], fig9 "rawdaudio");
    ( "fig10",
      [ 5 ],
      fun () ->
        Experiments.render_figure10 ppf
          (Experiments.performance ~move_latency:5 ()) );
    ( "compile-time",
      [],
      fun () ->
        Experiments.render_compile_time ppf (Experiments.compile_time ()) );
    ( "ablate-merge",
      [],
      fun () -> Ablations.render_merge_ablation ppf (Ablations.merge_ablation ())
    );
    ( "ablate-imbalance",
      [],
      fun () -> Ablations.render_imbalance ppf (Ablations.imbalance_sweep ()) );
    ( "ablate-clusters",
      [],
      fun () -> Ablations.render_four_clusters ppf (Ablations.four_clusters ())
    );
    ( "ablate-bug",
      [],
      fun () -> Ablations.render_bug ppf (Ablations.bug_comparison ()) );
    ( "ablate-hetero",
      [],
      fun () -> Ablations.render_heterogeneous ppf (Ablations.heterogeneous ())
    );
    ( "scenario-matrix",
      [],
      fun () ->
        Experiments.render_scenario_matrix ppf
          (Experiments.scenario_sweep ~jobs ()) );
  ]

(** Every experiment name in run order, then the [bechamel]
    pseudo-experiment (never part of a full run). *)
let names = List.map (fun (n, _, _) -> n) (experiments ~jobs:1) @ [ "bechamel" ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-timing of the partitioning passes (Section 4.5's
   claim is about compile time, so we measure the compiler, not the
   simulated program).  Besides the full methods, the multilevel graph
   partitioner is timed in isolation on the GDP program graphs of three
   benchmarks, so partitioner speedups are visible independently of
   RHOP and scheduling.                                                *)

let bechamel_benches = [ "rawcaudio"; "fir"; "mpeg2enc" ]

(** Run the bechamel suite; returns [(test name, ns/run estimate)] rows,
    sorted by name ([None] when OLS produced no estimate).  With [pool]
    (opened once by the caller so staged closures never pay a domain
    spawn), every method test gets a twin suffixed [-parN] ([N] = the
    pool width) driving the same work through the pool. *)
let bechamel_results ?pool () : (string * float option) list =
  let open Bechamel in
  let machine =
    Machine_spec.resolve (Machine_spec.of_legacy ~clusters:2 ~move_latency:5)
  in
  let tests =
    List.concat_map
      (fun name ->
        let ctx =
          Pipeline.context ~machine
            (Pipeline.prepare (Benchsuite.Suite.find name))
        in
        let method_test ?pool suffix m =
          Test.make
            ~name:(Fmt.str "%s/%s%s" name (Partition.Methods.name m) suffix)
            (Staged.stage (fun () -> ignore (Partition.Methods.run ?pool m ctx)))
        in
        (* the METIS stand-in alone, on the real program graph *)
        let prob =
          Partition.Gdp.build_problem ~machine
            ~prog:ctx.Partition.Methods.prog ~merge:ctx.Partition.Methods.merge
            ~dfg:ctx.Partition.Methods.dfg
            ~profile:ctx.Partition.Methods.profile ()
        in
        let graph = prob.Partition.Gdp.graph
        and config = prob.Partition.Gdp.pconfig in
        let partitioner_tests =
          [
            Test.make
              ~name:(Fmt.str "%s/partitioner-bisect" name)
              (Staged.stage (fun () ->
                   ignore (Graphpart.Partitioner.bisect ~config graph)));
            Test.make
              ~name:(Fmt.str "%s/partitioner-kway4" name)
              (Staged.stage (fun () ->
                   ignore (Graphpart.Partitioner.kway ~config graph ~nparts:4)));
          ]
        in
        let par_tests =
          match pool with
          | None -> []
          | Some pool ->
              List.map
                (method_test ~pool (Fmt.str "-par%d" (Par.size pool)))
                Partition.Methods.all
        in
        List.map (method_test "") Partition.Methods.all
        @ partitioner_tests @ par_tests)
      bechamel_benches
  in
  let test = Test.make_grouped ~name:"partitioning" ~fmt:"%s %s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Bechamel.Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances test in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let merged = Analyze.merge ols instances results in
  Hashtbl.fold
    (fun _measure tbl acc ->
      Hashtbl.fold
        (fun name ols_result acc ->
          let est =
            match Analyze.OLS.estimates ols_result with
            | Some (est :: _) -> Some est
            | Some [] | None -> None
          in
          (name, est) :: acc)
        tbl acc)
    merged []
  |> List.sort compare

(** Time the partitioning passes and print the rows.  [par_domains >= 2]
    opens one pool for the whole suite, so domain spawn and teardown
    happen here, never inside a staged closure, and adds the [-parN]
    rows. *)
let bechamel ~par_domains =
  let rows =
    if par_domains >= 2 then
      Par.with_pool ~domains:par_domains (fun pool -> bechamel_results ~pool ())
    else bechamel_results ()
  in
  Fmt.pr "@.measure: monotonic-clock (ns/run)@.";
  List.iter
    (fun (name, est) ->
      match est with
      | Some est -> Fmt.pr "  %-44s %12.0f ns/run@." name est
      | None -> Fmt.pr "  %-44s (no estimate)@." name)
    rows;
  rows

(* ------------------------------------------------------------------ *)
(* Running experiments                                                 *)

(* gdp-bench/1: per-experiment wall times plus bechamel ns/run
   estimates.  BENCH_partitioner.json is a committed snapshot of it. *)
let write_json path ~timings ~bechamel =
  let open Minijson in
  write_file path
    (obj
       [
         ("schema", str "gdp-bench/1");
         ( "experiments",
           list
             (List.map
                (fun (n, s) -> obj [ ("name", str n); ("seconds", float s) ])
                timings) );
         ( "bechamel",
           list
             (List.map
                (fun (n, e) ->
                  obj [ ("name", str n); ("ns_per_run", option float e) ])
                bechamel) );
       ]);
  Fmt.pr "wrote %s@." path

(** Run the named experiments in order, each under an
    [experiment:NAME] telemetry span; [[]] reproduces the whole paper
    with a banner per experiment.  [json] receives the gdp-bench/1
    timings. *)
let run ~jobs ~par_domains ~json names =
  let table = experiments ~jobs in
  let all = names = [] in
  if all then
    Fmt.pr
      "Reproducing: Chu & Mahlke, Compiler-directed Data Partitioning for \
       Multicluster Processors (CGO 2006)@.";
  let names = if all then List.map (fun (n, _, _) -> n) table else names in
  (if jobs > 1 then
     match
       List.sort_uniq compare
         (List.concat_map
            (fun (n, lats, _) -> if List.mem n names then lats else [])
            table)
     with
     | [] -> ()
     | latencies -> Experiments.prefetch ~jobs ~latencies ());
  let bech = ref [] in
  let timings =
    List.map
      (fun name ->
        if all then
          Fmt.pr "@.===================== %s =====================@." name;
        let f =
          if name = "bechamel" then fun () -> bech := bechamel ~par_domains
          else
            let _, _, f = List.find (fun (n, _, _) -> n = name) table in
            f
        in
        (name, snd (Telemetry.timed ("experiment:" ^ name) f)))
      names
  in
  Option.iter (fun path -> write_json path ~timings ~bechamel:!bech) json

(* ------------------------------------------------------------------ *)
(* Gates: attribution reports and the metrics regression gate at the
   paper's default 5-cycle latency (--check re-runs at whatever latency
   the baseline was recorded at), and the bechamel partitioner gate.   *)

let attrib_latency = 5

let explanations ~move_latency =
  List.filter_map
    (fun (b : Benchsuite.Bench_intf.t) ->
      try Some (Gdp_report.Explain.explain_bench ~move_latency b)
      with exn ->
        Fmt.epr "warning: explain %s failed: %s@." b.Benchsuite.Bench_intf.name
          (Printexc.to_string exn);
        None)
    (Experiments.default_benches ())

(* The regression gate only needs the comparable rows, so with -j it
   fans one attribution job per benchmark over the process pool: each
   worker returns its benchmark's "gdp-attrib/1" document, which
   [Regress.of_json] reads back — same parser as the committed baseline
   file, so parallel gate rows are the sequential rows. *)
let gate_worker (payload : Minijson.t) : Minijson.t =
  match
    ( Option.bind (Minijson.member "bench" payload) Minijson.to_string,
      Option.bind (Minijson.member "move_latency" payload) Minijson.to_int )
  with
  | Some name, Some move_latency -> (
      let b = Benchsuite.Suite.find name in
      let e = Gdp_report.Explain.explain_bench ~move_latency b in
      let doc = Format.asprintf "%a" Gdp_report.Explain.to_json [ e ] in
      match Minijson.parse doc with
      | Ok v -> v
      | Error m -> failwith ("attribution document did not re-parse: " ^ m))
  | _ -> failwith "malformed gate job payload"

let gate_rows ~jobs ~move_latency : Gdp_report.Regress.row list =
  if jobs <= 1 then Gdp_report.Regress.rows_of (explanations ~move_latency)
  else begin
    let benches = Experiments.default_benches () in
    let job_of (b : Benchsuite.Bench_intf.t) =
      let name = b.Benchsuite.Bench_intf.name in
      Exec.job ~batch:name
        (Minijson.obj
           [
             ("bench", Minijson.str name);
             ("move_latency", Minijson.int move_latency);
           ])
    in
    let results = Exec.map ~jobs ~worker:gate_worker (List.map job_of benches) in
    List.concat
      (List.mapi
         (fun i (b : Benchsuite.Bench_intf.t) ->
           let name = b.Benchsuite.Bench_intf.name in
           match
             Result.bind results.(i) (Gdp_report.Regress.of_json ~where:name)
           with
           | Ok base -> base.Gdp_report.Regress.b_rows
           | Error m ->
               Fmt.epr "warning: explain %s failed: %s@." name m;
               [])
         benches)
  end

(* Print a gate's verdict: the OK line, or every issue then a count.
   Returns whether the gate passed. *)
let verdict ~gate ~rows ~bound ?(note = "") issues =
  if issues = [] then begin
    Fmt.pr "%s: OK — %d baseline row(s) within %s%s@." gate rows bound note;
    true
  end
  else begin
    List.iter
      (fun i -> Fmt.epr "%s: REGRESSION: %a@." gate Gdp_report.Regress.pp_issue i)
      issues;
    Fmt.epr "%s: %d regression(s) beyond %s@." gate (List.length issues) bound;
    false
  end

let check_attribution ~jobs ~tolerance path =
  match Gdp_report.Regress.load path with
  | Error m ->
      Fmt.epr "check: cannot load baseline: %s@." m;
      false
  | Ok base ->
      let latency = base.Gdp_report.Regress.b_latency in
      let current = gate_rows ~jobs ~move_latency:latency in
      verdict ~gate:"check"
        ~rows:(List.length base.Gdp_report.Regress.b_rows)
        ~bound:(Fmt.str "%.1f%%" tolerance)
        ~note:(Fmt.str " (latency %d)" latency)
        (Gdp_report.Regress.check ~tolerance ~baseline:base ~current)

(* Bechamel ns/run rows are wall-clock micro-benchmarks; the gate's job
   is catching order-of-magnitude collapses (a parallel path silently
   serializing, an accidental quadratic), not 2% jitter.  Hence a very
   generous fixed tolerance. *)
let partitioner_tolerance = 400.0

let check_partitioner ~par_domains path =
  match Gdp_report.Regress.load_partitioner path with
  | Error m ->
      Fmt.epr "check-partitioner: cannot load baseline: %s@." m;
      false
  | Ok base ->
      let rows = bechamel ~par_domains in
      verdict ~gate:"check-partitioner"
        ~rows:(List.length base.Gdp_report.Regress.pb_rows)
        ~bound:(Fmt.str "%.0f%%" partitioner_tolerance)
        (Gdp_report.Regress.check_partitioner ~tolerance:partitioner_tolerance
           ~baseline:base rows)

let write_text_file path render =
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  render ppf;
  Format.pp_print_flush ppf ();
  close_out oc;
  Fmt.pr "wrote %s@." path

(** Write the attribution [report] directory and [baseline] file, then
    run the [check] and [check_partitioner] gates; [false] when a gate
    failed.  The attribution gate forks worker processes (-j), so it
    runs before the partitioner gate can spawn any domain: once a
    process has created a domain, OCaml 5 forbids [Unix.fork] for good. *)
let gate ~jobs ~par_domains ?report ?baseline ?check ~tolerance
    ?check_partitioner:partitioner () =
  let es = lazy (explanations ~move_latency:attrib_latency) in
  Option.iter
    (fun dir ->
      List.iter (Fmt.pr "wrote %s@.")
        (Gdp_report.Explain.write_reports ~dir (Lazy.force es)))
    report;
  Option.iter
    (fun path ->
      write_text_file path (fun ppf ->
          Gdp_report.Explain.to_json ppf (Lazy.force es)))
    baseline;
  let attrib_ok =
    Option.fold ~none:true ~some:(check_attribution ~jobs ~tolerance) check
  in
  let part_ok =
    Option.fold ~none:true ~some:(check_partitioner ~par_domains) partitioner
  in
  attrib_ok && part_ok
