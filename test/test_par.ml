(** The Par task-pool layer and the intra-compile parallelism built on
    it: pool semantics and error contract, domain-safety of the shared
    telemetry and pipeline caches, and the determinism contract — the
    pool width is an execution width, so no artifact may depend on it. *)

module Methods = Partition.Methods
module Pipeline = Gdp_core.Pipeline

(* ------------------------------------------------------------------ *)
(* Pool semantics                                                      *)

let test_pool_semantics () =
  Par.with_pool ~domains:1 (fun pool ->
      Alcotest.(check int) "width 1" 1 (Par.size pool));
  Par.with_pool ~domains:0 (fun pool ->
      Alcotest.(check int) "clamped to 1" 1 (Par.size pool));
  (* the width is exactly the request, also above the core count *)
  Par.with_pool ~domains:4 (fun pool ->
      if Par.backend = "domains" then
        Alcotest.(check int) "width 4" 4 (Par.size pool)
      else Alcotest.(check int) "seq width 1" 1 (Par.size pool))

let test_map_for_chunks () =
  Par.with_pool ~domains:4 (fun pool ->
      let squares = Par.map pool ~n:100 (fun i -> i * i) in
      Alcotest.(check bool) "map lands by index" true
        (squares = Array.init 100 (fun i -> i * i));
      let hits = Array.make 1000 0 in
      Par.parallel_for pool ~n:1000 (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "parallel_for covers each index once" true
        (Array.for_all (fun h -> h = 1) hits);
      (* a size that does not divide evenly into chunks *)
      let hits = Array.make 1001 0 in
      Par.parallel_chunks pool ~n:1001 (fun lo hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Alcotest.(check bool) "parallel_chunks covers each index once" true
        (Array.for_all (fun h -> h = 1) hits);
      Par.parallel_for pool ~n:0 (fun _ -> assert false);
      Par.parallel_chunks pool ~n:0 (fun _ _ -> assert false);
      Alcotest.(check bool) "empty map" true
        (Par.map pool ~n:0 (fun _ -> assert false) = [||]))

let test_exception_contract () =
  Par.with_pool ~domains:4 (fun pool ->
      let ran = Array.make 64 false in
      match
        Par.parallel_for pool ~n:64 (fun i ->
            ran.(i) <- true;
            if i mod 7 = 3 then failwith (string_of_int i))
      with
      | () -> Alcotest.fail "expected the body's exception to propagate"
      | exception Failure msg ->
          Alcotest.(check string) "lowest failing index wins" "3" msg;
          if Par.backend = "domains" then
            Alcotest.(check bool) "every index still ran" true
              (Array.for_all Fun.id ran))

let test_nested_runs_inline () =
  Par.with_pool ~domains:4 (fun pool ->
      let totals =
        Par.map pool ~n:8 (fun i ->
            (* re-entering the pool from a body must run inline — a
               deadlock here would hang the whole suite *)
            let s = ref 0 in
            Par.parallel_for pool ~n:100 (fun j -> s := !s + j + i);
            !s)
      in
      Alcotest.(check bool) "nested results correct" true
        (Array.to_list totals
        = List.init 8 (fun i -> (100 * 99 / 2) + (100 * i))))

let test_lock_stress () =
  Par.with_pool ~domains:4 (fun pool ->
      let lock = Par.Lock.create () in
      let counter = ref 0 in
      Par.parallel_for pool ~n:10_000 (fun _ ->
          Par.Lock.with_lock lock (fun () -> incr counter));
      Alcotest.(check int) "no lost updates under the lock" 10_000 !counter)

(* ------------------------------------------------------------------ *)
(* Domain-safety of the shared state the compile pipeline touches      *)

let test_telemetry_stress () =
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.reset ();
      Telemetry.disable ())
  @@ fun () ->
  (* workers only record; Alcotest prints through the shared, not
     domain-safe formatter, so every assertion runs after the join *)
  let span_results = Array.make 4_000 0 in
  Par.with_pool ~domains:4 (fun pool ->
      Par.parallel_for pool ~n:4_000 (fun i ->
          Telemetry.incr "par.test.counter";
          Telemetry.observe "par.test.hist" (float_of_int (i mod 97));
          Telemetry.set_gauge "par.test.gauge" (float_of_int i);
          (* spans from worker domains are dropped, not corrupted *)
          span_results.(i) <-
            Telemetry.with_span "par.test.span" (fun () -> 7)));
  Array.iteri
    (fun i r ->
      if r <> 7 then Alcotest.failf "span body %d returned %d, not 7" i r)
    span_results;
  Alcotest.(check int) "counter lost no updates" 4_000
    (Telemetry.counter_value "par.test.counter");
  let snap = Telemetry.snapshot () in
  match List.assoc_opt "par.test.hist" snap.Telemetry.hists with
  | None -> Alcotest.fail "histogram missing from the snapshot"
  | Some h ->
      Alcotest.(check int) "histogram lost no observations" 4_000
        h.Telemetry.h_count;
      Alcotest.(check int) "buckets sum to the count" 4_000
        (Array.fold_left ( + ) 0 h.Telemetry.h_buckets)

let test_winhist_stress () =
  (* the metrics plane mutates Winhist from whichever context handles a
     request; every mutation is guarded by the instance's Par.Lock, so
     concurrent observers must lose nothing *)
  let clock () = 0. in
  let h = Telemetry.Winhist.create ~clock () in
  Par.with_pool ~domains:4 (fun pool ->
      Par.parallel_for pool ~n:8_000 (fun i ->
          Telemetry.Winhist.observe h (float_of_int (1 + (i mod 500)))));
  Alcotest.(check int) "no lost observations" 8_000
    (Telemetry.Winhist.count h);
  (* a consistent merged read under no contention afterwards *)
  match Telemetry.Winhist.quantiles h [ 0.5; 0.99 ] with
  | [ p50; p99 ] ->
      Alcotest.(check bool) "p50 sane" true (p50 > 0. && p50 <= 500. *. 1.1);
      Alcotest.(check bool) "p99 >= p50" true (p99 >= p50)
  | _ -> Alcotest.fail "quantiles arity"

let test_clear_caches_concurrent () =
  let hits = Atomic.make 0 in
  Pipeline.register_cache_clearer ~key:"test-par-clearer" (fun () ->
      Atomic.incr hits);
  (* hammer clear_caches from every domain: no deadlock (the clearer
     list is snapshotted, clearers run outside the lock) and no torn
     registry state afterwards *)
  Par.with_pool ~domains:4 (fun pool ->
      Par.parallel_for pool ~n:64 (fun _ -> Pipeline.clear_caches ()));
  let before = Atomic.get hits in
  Pipeline.clear_caches ();
  Alcotest.(check bool) "clearer ran under contention" true (before > 0);
  Alcotest.(check bool) "registry intact after the stress" true
    (Atomic.get hits > before)

(* ------------------------------------------------------------------ *)
(* End-to-end artifact identity through the full pipeline.  The
   service-layer artifact is the canonical rendering the gdpcd cache
   keys on, so "same bytes" here is exactly the cache-compatibility
   contract of docs/parallelism.md.                                    *)

let job ~settings ~input source =
  {
    Service.Protocol.id = "par-test";
    source;
    input;
    settings;
    deadline_ms = None;
    verify = false;
    trace_id = None;
  }

let evaluate ~par_workers job =
  match Service.Protocol.evaluate_job ~par_workers job with
  | Ok doc -> doc
  | Error m ->
      Alcotest.failf "evaluate_job (%s, width %d) failed: %s"
        (Methods.name job.Service.Protocol.settings.Pipeline.Settings.method_)
        par_workers m

let artifact ~par_workers ~move_latency method_ source =
  let settings =
    {
      (Pipeline.Settings.default method_) with
      Pipeline.Settings.machine =
        Machine_spec.of_legacy ~clusters:2 ~move_latency;
    }
  in
  Minijson.encode
    (evaluate ~par_workers
       (job ~settings ~input:(Array.to_list Gen_minic.input) source))

let latency_of_seed seed = [| 1; 5; 10 |].(seed mod 3)

let prop_methods_par_identity =
  Helpers.qcheck ~count:3
    "unified/naive/profile-max artifacts are byte-identical for par \
     domains 1, 2 and 4"
    (fun seed ->
      let source = Gen_minic.gen_program_with_seed seed in
      let move_latency = latency_of_seed seed in
      List.for_all
        (fun m ->
          let a1 = artifact ~par_workers:1 ~move_latency m source in
          artifact ~par_workers:2 ~move_latency m source = a1
          && artifact ~par_workers:4 ~move_latency m source = a1)
        [ Methods.Unified; Methods.Naive; Methods.Profile_max ])
    Gen_minic.arbitrary_program

(* The par width is an execution width only, so GDP's artifact must not
   move between widths either; width 1 is the sequential cap. *)
let prop_gdp_par_deterministic =
  Helpers.qcheck ~count:3
    "gdp par artifacts are byte-identical for 2 and 4 domains and under \
     a worker cap"
    (fun seed ->
      let source = Gen_minic.gen_program_with_seed seed in
      let move_latency = latency_of_seed seed in
      let a2 = artifact ~par_workers:2 ~move_latency Methods.Gdp source in
      artifact ~par_workers:2 ~move_latency Methods.Gdp source = a2
      && artifact ~par_workers:4 ~move_latency Methods.Gdp source = a2
      && artifact ~par_workers:1 ~move_latency Methods.Gdp source = a2)
    Gen_minic.arbitrary_program

(* The service-closed benchmark kernel (perfbench/service_bench.ml) at
   scale 1000001, bias 17, on the paper machine with 5-cycle moves.
   GDP once depended on the domain count here: a 4-domain run gave 1441
   cycles and 266 moves. *)
let service_kernel =
  {|
int scale = 1000001;
int bias = 17;

void main() {
  int n = 24;
  int *a = malloc(24);
  int *b = malloc(24);
  int *c = malloc(24);
  for (int i = 0; i < n; i = i + 1) { a[i] = in(i) * scale + bias; }
  for (int i = 0; i < n; i = i + 1) { b[i] = a[i] - bias; }
  for (int i = 0; i < n; i = i + 1) { c[i] = a[i] + b[i] * 3; }
  int s = 0;
  for (int i = 0; i < n; i = i + 1) { s = s + c[i] - a[i]; }
  out(s);
}
|}

let test_service_kernel_golden () =
  let input = List.init 24 (fun i -> ((i * 37) + 11) mod 256) in
  let run ~par_workers method_ =
    let doc =
      evaluate ~par_workers
        (job ~settings:(Pipeline.Settings.default method_) ~input
           service_kernel)
    in
    let int k = Option.bind (Minijson.member k doc) Minijson.to_int in
    let homes =
      match Minijson.member "obj_homes" doc with
      | Some (Minijson.List l) ->
          List.filter_map
            (fun h ->
              match
                ( Option.bind (Minijson.member "obj" h) Minijson.to_string,
                  Option.bind (Minijson.member "cluster" h) Minijson.to_int )
              with
              | Some o, Some c -> Some (o, c)
              | _ -> None)
            l
          |> List.sort compare
      | _ -> []
    in
    (int "cycles", int "dynamic_moves", homes)
  in
  List.iter
    (fun par_workers ->
      let what = Printf.sprintf "width %d" par_workers in
      let cycles, moves, homes = run ~par_workers Methods.Gdp in
      Alcotest.(check (option int))
        ("gdp cycles, " ^ what) (Some 1201) cycles;
      Alcotest.(check (option int)) ("gdp moves, " ^ what) (Some 218) moves;
      Alcotest.(check (list (pair string int)))
        ("gdp homes, " ^ what)
        [
          ("@bias", 0);
          ("@scale", 0);
          ("heap#0", 0);
          ("heap#1", 1);
          ("heap#2", 1);
        ]
        homes;
      let cycles, moves, _ = run ~par_workers Methods.Unified in
      Alcotest.(check (option int))
        ("unified cycles, " ^ what) (Some 1076) cycles;
      Alcotest.(check (option int)) ("unified moves, " ^ what) (Some 98) moves)
    [ 1; 4 ]

let suite =
  [
    Alcotest.test_case "pool semantics" `Quick test_pool_semantics;
    Alcotest.test_case "map/for/chunks cover exactly once" `Quick
      test_map_for_chunks;
    Alcotest.test_case "exception contract" `Quick test_exception_contract;
    Alcotest.test_case "nested calls run inline" `Quick
      test_nested_runs_inline;
    Alcotest.test_case "lock stress" `Quick test_lock_stress;
    Alcotest.test_case "telemetry stress under domains" `Quick
      test_telemetry_stress;
    Alcotest.test_case "winhist stress under domains" `Quick
      test_winhist_stress;
    Alcotest.test_case "clear_caches under domains" `Quick
      test_clear_caches_concurrent;
    prop_methods_par_identity;
    prop_gdp_par_deterministic;
    Alcotest.test_case "service kernel golden at widths 1 and 4" `Quick
      test_service_kernel_golden;
  ]
