(* The compile workloads: a closed loop of verified compiles from
   source, one caller, whole passes over (program x method).  The first
   pass runs in canonical order, so its peak heap does not depend on the
   seed; the seed shuffles every later pass anew. *)

module M = Partition.Methods
module Bi = Benchsuite.Bench_intf

type workload = {
  name : string;
  preset : string;
  programs : string list;  (** [] = the whole suite *)
  methods : M.t list;
}

let suite_paper =
  { name = "suite-paper"; preset = "paper"; programs = []; methods = M.all }

let large_mesh16 =
  {
    name = "large-mesh16";
    preset = "mesh16";
    programs = [ "mpeg2enc"; "mpeg2dec"; "unepic"; "epic"; "fir" ];
    methods = [ M.Gdp; M.Unified ];
  }

let now = Unix.gettimeofday

(* Pass [pass] of the closed loop; pass 0 keeps the canonical order. *)
let shuffle ~seed ~pass a =
  let a = Array.copy a in
  if pass > 0 then begin
    let st = Random.State.make [| seed; pass |] in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done
  end;
  a

type setup = {
  spec : Machine_spec.t;
  machine : Vliw_machine.t;
  jobs : (Bi.t * M.t) array;  (** canonical order *)
}

let setup w =
  let spec =
    match Machine_spec.preset w.preset with
    | Ok s -> s
    | Error m -> failwith m
  in
  let programs =
    match w.programs with
    | [] -> Benchsuite.Suite.all
    | names -> List.map Benchsuite.Suite.find names
  in
  {
    spec;
    machine = Machine_spec.resolve spec;
    jobs =
      Array.of_list
        (List.concat_map (fun b -> List.map (fun m -> (b, m)) w.methods) programs);
  }

let job_key ((b : Bi.t), m) = b.Bi.name ^ "/" ^ M.name m

let host_fields w s =
  [
    ("workload", Minijson.str w.name);
    ("preset", Minijson.str w.preset);
    ("machine", Machine_spec.to_json s.spec);
    ("clusters", Minijson.int (Vliw_machine.num_clusters s.machine));
    ("ocaml_version", Minijson.str Sys.ocaml_version);
  ]

let snapshot tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let num_obj kvs = Minijson.obj (List.map (fun (k, v) -> (k, Minijson.float v)) kvs)

(* Ops of pass [p] have ids [p * ops_per_pass + 1 ..]. *)
let ops_per_pass = 100_000

let run w ~seed ~seconds ~traced ~t0 =
  let s = setup w in
  let by_key = Hashtbl.create 128 in
  let latencies = ref [] in
  let errors = ref [] and leaks = ref [] in
  let pass_s = ref [] and pass_counts = ref [] in
  let pass = ref 0 and peak_heap_words = ref 0 in
  let setup_s = now () -. t0 in
  let start = now () in
  while !pass = 0 || now () -. start < seconds do
    Hashtbl.reset Compile_op.counts;
    let busy = ref 0. in
    Array.iteri
      (fun i ((b, m) as job) ->
        let key = job_key job in
        let t = now () in
        let r =
          if traced then
            Compile_op.traced ~op:((!pass * ops_per_pass) + i + 1)
              ~machine:s.machine b m
          else Compile_op.plain ~spec:s.spec b m
        in
        let dt = now () -. t in
        latencies := dt :: !latencies;
        busy := !busy +. dt;
        (match r with
        | Error msg -> errors := (key, msg) :: !errors
        | Ok r -> (
            match Hashtbl.find_opt by_key key with
            | None -> Hashtbl.replace by_key key r
            | Some r0 -> if r0 <> r then leaks := key :: !leaks));
        if !pass > 0 then Calib.maybe ~every:2.0)
      (shuffle ~seed ~pass:!pass s.jobs);
    pass_s := !busy :: !pass_s;
    if !pass = 0 then peak_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    pass_counts := snapshot Compile_op.counts :: !pass_counts;
    incr pass
  done;
  Calib.run ();
  let timed_s = now () -. start in
  let passes = !pass in
  (* the traced run must reproduce the untraced pipeline exactly; the
     untraced compiles double as the overhead baseline *)
  let untraced_s, unfaithful =
    if not traced then (0., [])
    else
      Array.fold_left
        (fun (acc, bad) ((b, m) as job) ->
          let key = job_key job in
          let t = now () in
          let r = Compile_op.plain ~spec:s.spec b m in
          let acc = acc +. (now () -. t) in
          match (r, Hashtbl.find_opt by_key key) with
          | Ok r, Some r0 when r = r0 -> (acc, bad)
          | Ok r, _ -> (acc, (key, Compile_op.result_line r) :: bad)
          | Error msg, _ -> (acc, (key, msg) :: bad))
        (0., []) s.jobs
  in
  let results =
    Array.to_list s.jobs
    |> List.filter_map (fun job ->
           let key = job_key job in
           Option.map (fun r -> (key, r)) (Hashtbl.find_opt by_key key))
  in
  let digest =
    results
    |> List.map (fun (k, r) -> k ^ " " ^ Compile_op.result_line r)
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  let cycles_of prog m =
    Option.map
      (fun (r : Compile_op.result) -> r.Compile_op.cycles)
      (Hashtbl.find_opt by_key (prog ^ "/" ^ M.name m))
  in
  let ratios =
    Array.to_list s.jobs
    |> List.filter_map (fun ((b : Bi.t), m) ->
           if m <> M.Gdp then None
           else
             match (cycles_of b.Bi.name M.Unified, cycles_of b.Bi.name M.Gdp) with
             | Some base, Some c -> Some (Gdp_core.Report.ratio ~base c)
             | _ -> None)
  in
  let sum f = List.fold_left (fun a (_, r) -> a + f r) 0 results in
  let layer_json keep =
    Hashtbl.fold
      (fun name (t, w) acc ->
        (name, Minijson.obj [ ("s", Minijson.float t); ("words", Minijson.float w) ])
        :: acc)
      (Trace.totals ~keep ()) []
    |> List.sort compare |> Minijson.obj
  in
  let root_s, uncovered_s = Trace.uncovered () in
  let pass_of op = op / ops_per_pass in
  Minijson.obj
    (host_fields w s
    @ [
        ("seed", Minijson.int seed);
        ("traced", Minijson.bool traced);
        ("setup_s", Minijson.float setup_s);
        ("timed_s", Minijson.float timed_s);
        ("passes", Minijson.int passes);
        ("pass_s", Minijson.list (List.rev_map Minijson.float !pass_s));
        ("latencies_s", Minijson.list (List.rev_map Minijson.float !latencies));
        ("probes_s", Calib.to_json ());
        ("attempted", Minijson.int (List.length !latencies));
        ( "errors",
          Minijson.list
            (List.rev_map
               (fun (k, m) -> Minijson.str (k ^ ": " ^ m))
               !errors) );
        ("leaks", Minijson.list (List.rev_map Minijson.str !leaks));
        ( "unfaithful",
          Minijson.list
            (List.rev_map (fun (k, m) -> Minijson.str (k ^ ": " ^ m)) unfaithful) );
        ("complete", Minijson.bool (List.length results = Array.length s.jobs));
        ("digest", Minijson.str digest);
        ("sim_cycles_total", Minijson.int (sum (fun r -> r.Compile_op.cycles)));
        ("dynamic_moves_total", Minijson.int (sum (fun r -> r.Compile_op.moves)));
        ("perf_ratios", Minijson.list (List.map Minijson.float ratios));
        ( "peak_heap_bytes",
          Minijson.float (float_of_int (!peak_heap_words * (Sys.word_size / 8))) );
      ]
    @
    if not traced then []
    else
      [
        ("untraced_pass_s", Minijson.float untraced_s);
        ("root_s", Minijson.float root_s);
        ("uncovered_s", Minijson.float uncovered_s);
        ("layers", layer_json (fun _ -> true));
        ( "layers_by_pass",
          Minijson.list
            (List.init passes (fun p -> layer_json (fun op -> pass_of op = p))) );
        ("counts_by_pass", Minijson.list (List.rev_map num_obj !pass_counts));
      ])
