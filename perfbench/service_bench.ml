(* The service workload: a private gdpcd (2 exec workers, a durable
   store) and one client process holding 2 closed-loop connections.  The
   request stream comes in rounds of [round_size] small GDP kernels:
   exactly half are unique programs, the other half are drawn from a
   4-program set shared within the round, so every round compiles the
   same number of distinct jobs whatever the timing.  Each round uses
   programs no earlier round sent. *)

module Pr = Service.Protocol
module Cl = Service.Client
module Settings = Gdp_core.Pipeline.Settings

let round_size = 1500
let chunk = 250
let shared_set = 4
let max_attempts = 5
let now = Unix.gettimeofday

let input = List.init 24 (fun i -> ((i * 37) + 11) mod 256)

let program ~scale ~bias =
  Printf.sprintf
    {|
int scale = %d;
int bias = %d;

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
    scale bias

(* The jobs of one round, in send order.  The seed decides the order:
   which positions repeat a shared program, and which one.  The set of
   distinct programs does not depend on it. *)
let plan ~seed ~round =
  let st = Random.State.make [| seed; round |] in
  let dup = Array.init round_size (fun i -> i mod 2 = 1) in
  for i = round_size - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = dup.(i) in
    dup.(i) <- dup.(j);
    dup.(j) <- t
  done;
  let dups = ref 0 and uniques = ref 0 in
  Array.mapi
    (fun i is_dup ->
      let scale =
        if is_dup then begin
          (* the first [shared_set] duplicates cover the whole set *)
          let k = if !dups < shared_set then !dups else Random.State.int st shared_set in
          incr dups;
          500_000 + (round * shared_set) + k
        end
        else begin
          incr uniques;
          1_000_000 + (round * round_size) + !uniques
        end
      in
      {
        Pr.id = Printf.sprintf "r%d-%d" round i;
        source = program ~scale ~bias:17;
        input;
        settings = Settings.default Partition.Methods.Gdp;
        deadline_ms = None;
        verify = false;
        trace_id = None;
      })
    dup

type conn = { mutable cl : Cl.t; mutable busy : (int * int * float) option }
(* busy: (job index, attempt, first send time) *)

type tally = {
  mutable latencies : float list;
  mutable busy_s : float;  (** wall time spent in chunks *)
  mutable queue_us : float list;
  mutable exec_us : float list;
  mutable deliver_us : float list;
  mutable wire_us : float list;
  mutable cached : int;
  mutable attempted : int;
  mutable failed : int;
  mutable shed : int;
  mutable gave_up : int;
  mutable served_mismatches : int;
  mutable errors : string list;
}

let num name doc = Option.bind (Minijson.member name doc) Minijson.to_float

let rec path names doc =
  match names with
  | [] -> Some doc
  | n :: rest -> Option.bind (Minijson.member n doc) (path rest)

(* where every distinct cache key was first served, and its bytes *)
type served = { round : int; index : int; bytes : string }

(* Send jobs [first, last) over the connections and wait for every
   answer. *)
let run_chunk ~endpoint conns tally served ~round jobs first last =
  let n = last - first in
  let next = ref first and completed = ref 0 in
  let fire c i attempt start =
    Cl.send c.cl (Pr.Submit jobs.(i));
    c.busy <- Some (i, attempt, start)
  in
  let fill () =
    Array.iter
      (fun c ->
        if c.busy = None && !next < last then begin
          let i = !next in
          incr next;
          tally.attempted <- tally.attempted + 1;
          fire c i 1 (now ())
        end)
      conns
  in
  let note msg =
    if List.length tally.errors < 10 then tally.errors <- msg :: tally.errors
  in
  let fail msg =
    tally.failed <- tally.failed + 1;
    note msg;
    incr completed
  in
  let on_result i lat cached result trace =
    let job = jobs.(i) in
    tally.latencies <- lat :: tally.latencies;
    if cached then tally.cached <- tally.cached + 1;
    (match trace with
    | None -> ()
    | Some t -> (
        match (num "total_us" t, num "queue_us" t, num "exec_us" t) with
        | Some total, Some queue, Some exec ->
            tally.wire_us <- Float.max 0. ((lat *. 1e6) -. total) :: tally.wire_us;
            if Minijson.member "cache_tier" t = Some (Minijson.Str "compute")
            then begin
              tally.queue_us <- queue :: tally.queue_us;
              tally.exec_us <- exec :: tally.exec_us;
              tally.deliver_us <-
                Float.max 0. (total -. queue -. exec) :: tally.deliver_us
            end
        | _ -> ()));
    let key = Pr.cache_key job in
    let bytes = Minijson.encode result in
    (match Hashtbl.find_opt served key with
    | None -> Hashtbl.replace served key { round; index = i; bytes }
    | Some s ->
        if s.bytes <> bytes then begin
          tally.served_mismatches <- tally.served_mismatches + 1;
          tally.failed <- tally.failed + 1;
          note ("served artifacts differ for " ^ job.Pr.id)
        end);
    incr completed
  in
  fill ();
  while !completed < n do
    let fds =
      Array.fold_left
        (fun acc c -> if c.busy = None then acc else Cl.fd c.cl :: acc)
        [] conns
    in
    (match Unix.select fds [] [] 60. with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> failwith "service: no response within 60 s"
    | readable, _, _ ->
        Array.iter
          (fun c ->
            match c.busy with
            | Some (i, attempt, start) when List.mem (Cl.fd c.cl) readable -> (
                let resp = Cl.recv c.cl in
                let fin = now () in
                c.busy <- None;
                match resp with
                | Ok (Pr.Result { id; cached; result; trace })
                  when id = jobs.(i).Pr.id ->
                    on_result i (fin -. start) cached result trace
                | Ok (Pr.Failed { retry_after_ms = Some ms; _ }) ->
                    tally.shed <- tally.shed + 1;
                    if attempt >= max_attempts then begin
                      tally.gave_up <- tally.gave_up + 1;
                      note ("gave up on " ^ jobs.(i).Pr.id);
                      incr completed
                    end
                    else begin
                      Unix.sleepf (float_of_int ms /. 1000.);
                      fire c i (attempt + 1) start
                    end
                | Ok (Pr.Failed { reason; _ }) -> fail reason
                | Ok _ -> fail ("unexpected response to " ^ jobs.(i).Pr.id)
                | Error m ->
                    fail m;
                    Cl.close c.cl;
                    c.cl <- Cl.connect ~attempts:20 endpoint)
            | _ -> ())
          conns);
    fill ()
  done

(* One round, in chunks with a host-speed probe between them from the
   second round on. *)
let run_round ~endpoint conns tally served ~round jobs =
  let n = Array.length jobs in
  let first = ref 0 in
  while !first < n do
    let last = min n (!first + chunk) in
    let t = now () in
    run_chunk ~endpoint conns tally served ~round jobs !first last;
    tally.busy_s <- tally.busy_s +. (now () -. t);
    if round > 0 then Calib.maybe ~every:2.0;
    first := last
  done

(* a distinct served job, rebuilt from its round's plan *)
type item = { job : Pr.job; round : int; bytes : string }

let cycles_of art = Option.bind (Minijson.member "cycles" art) Minijson.to_int

(* Recompute served artifacts inline and compare the bytes: jobs with
   an even index here, odd ones in a forked child.  Round-0 jobs are
   also compiled with Unified, for the GDP-versus-Unified ratio.
   Returns the jobs that differ and the ratios. *)
let cross_check (items : item array) =
  let check parity =
    let bad = ref [] and ratios = ref [] in
    Array.iteri
      (fun i s ->
        if i mod 2 = parity then begin
          let r = Pr.evaluate_job s.job in
          (match r with
          | Ok art when Minijson.encode art = s.bytes -> ()
          | Ok _ -> bad := s.job.Pr.id :: !bad
          | Error m -> bad := (s.job.Pr.id ^ ": " ^ m) :: !bad);
          if s.round = 0 then
            let unified =
              Pr.evaluate_job
                { s.job with Pr.settings = Settings.default Partition.Methods.Unified }
            in
            match (unified, r) with
            | Ok u, Ok g -> (
                match (cycles_of u, cycles_of g) with
                | Some base, Some c -> ratios := Gdp_core.Report.ratio ~base c :: !ratios
                | _ -> bad := (s.job.Pr.id ^ ": artifact without cycles") :: !bad)
            | Error m, _ -> bad := (s.job.Pr.id ^ " (unified): " ^ m) :: !bad
            | _, Error _ -> ()
        end)
      items;
    (List.rev !bad, List.rev !ratios)
  in
  let out = "crosscheck-child.json" in
  match Unix.fork () with
  | 0 ->
      let code =
        try
          let bad, ratios = check 1 in
          Minijson.write_file out
            (Minijson.obj
               [
                 ("bad", Minijson.list (List.map Minijson.str bad));
                 ("ratios", Minijson.list (List.map Minijson.float ratios));
               ]);
          0
        with _ -> 1
      in
      Unix._exit code
  | pid -> (
      let bad, ratios = check 0 in
      let rec wait () =
        try snd (Unix.waitpid [] pid)
        with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      let strings l = List.filter_map Minijson.to_string l in
      let floats l = List.filter_map Minijson.to_float l in
      match (wait (), Minijson.parse_file out) with
      | Unix.WEXITED 0, Ok doc -> (
          match (Minijson.member "bad" doc, Minijson.member "ratios" doc) with
          | Some (Minijson.List b), Some (Minijson.List r) ->
              (bad @ strings b, ratios @ floats r)
          | _ -> (bad @ [ "cross-check child wrote no result" ], ratios))
      | _ -> (bad @ [ "cross-check child failed" ], ratios))

let result_of_artifact art =
  let int name = Option.value ~default:(-1) (Option.bind (Minijson.member name art) Minijson.to_int) in
  let homes =
    match Minijson.member "obj_homes" art with
    | Some (Minijson.List l) ->
        List.filter_map
          (fun h ->
            match (path [ "obj" ] h, path [ "cluster" ] h) with
            | Some (Minijson.Str o), Some c ->
                Option.map (fun c -> Printf.sprintf "%s@%d" o c) (Minijson.to_int c)
            | _ -> None)
          l
        |> List.sort String.compare |> String.concat ","
    | _ -> ""
  in
  {
    Compile_op.cycles = int "cycles";
    moves = int "dynamic_moves";
    static_moves = int "static_moves";
    homes;
  }

let floats l = Minijson.list (List.rev_map Minijson.float l)

let run ~seed ~seconds ~traced ~t0 ~setup_only =
  (* the daemon's socket goes in the working directory *)
  Filename.set_temp_dir_name ".";
  let h = Service.Loadgen.spawn_server ~jobs:2 ~store_dir:"store" () in
  let endpoint = h.Service.Loadgen.sh_socket in
  let stopped = ref false in
  let stop () =
    if not !stopped then begin
      stopped := true;
      Service.Loadgen.stop_server h
    end
  in
  Fun.protect ~finally:stop @@ fun () ->
  let conns =
    Array.init 2 (fun _ -> { cl = Cl.connect ~attempts:20 endpoint; busy = None })
  in
  let setup_s = now () -. t0 in
  if setup_only then begin
    Array.iter (fun c -> Cl.close c.cl) conns;
    Minijson.obj [ ("setup_s", Minijson.float setup_s) ]
  end
  else begin
    let tally =
      {
        latencies = [];
        busy_s = 0.;
        queue_us = [];
        exec_us = [];
        deliver_us = [];
        wire_us = [];
        cached = 0;
        attempted = 0;
        failed = 0;
        shed = 0;
        gave_up = 0;
        served_mismatches = 0;
        errors = [];
      }
    in
    let served = Hashtbl.create 4096 in
    let start = now () in
    let round = ref 0 and peak_heap_words = ref 0 in
    while !round = 0 || now () -. start < seconds do
      run_round ~endpoint conns tally served ~round:!round (plan ~seed ~round:!round);
      if !round = 0 then peak_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
      incr round
    done;
    Calib.run ();
    let timed_s = now () -. start in
    Array.iter (fun c -> Cl.close c.cl) conns;
    let stats =
      let cl = Cl.connect endpoint in
      Fun.protect ~finally:(fun () -> Cl.close cl) @@ fun () ->
      match Cl.rpc cl Pr.Stats with
      | Ok (Pr.Stats_reply doc) -> doc
      | _ -> failwith "service: stats scrape failed"
    in
    stop ();
    let scrape names =
      Option.value ~default:0. (Option.bind (path names stats) Minijson.to_float)
    in
    let plans = Array.init !round (fun r -> plan ~seed ~round:r) in
    let items =
      Hashtbl.fold (fun k (s : served) acc -> (k, s) :: acc) served []
      |> List.sort compare
      |> List.map (fun (_, (s : served)) ->
             { job = plans.(s.round).(s.index); round = s.round; bytes = s.bytes })
      |> Array.of_list
    in
    let mismatched, ratios = cross_check items in
    let round0 = List.filter (fun (s : item) -> s.round = 0) (Array.to_list items) in
    let total f =
      List.fold_left
        (fun acc s ->
          match Minijson.parse s.bytes with
          | Ok art -> acc + Option.value ~default:0 (Option.bind (Minijson.member f art) Minijson.to_int)
          | Error _ -> acc)
        0 round0
    in
    let round_digests =
      List.init !round (fun r ->
          Array.to_list items
          |> List.filter (fun s -> s.round = r)
          |> List.map (fun s -> Pr.cache_key s.job ^ " " ^ s.bytes)
          |> String.concat "\n" |> Digest.string |> Digest.to_hex)
    in
    (* traced run: decompose round 0's distinct jobs layer by layer,
       each next to the untraced pipeline as the overhead baseline *)
    let traced_fields =
      if not traced then []
      else begin
        let spec = (Settings.default Partition.Methods.Gdp).Settings.machine in
        let machine = Machine_spec.resolve spec in
        let unfaithful = ref [] and traced_s = ref 0. and plain_s = ref 0. in
        List.iteri
          (fun i s ->
            let bench =
              {
                Benchsuite.Bench_intf.name = Pr.bench_name s.job;
                description = "gdpcd job";
                source = s.job.Pr.source;
                input = Array.of_list s.job.Pr.input;
                exhaustive_ok = false;
              }
            in
            let timed f =
              let t = now () in
              let r = f () in
              (r, now () -. t)
            in
            let r, dt =
              timed (fun () ->
                  Compile_op.traced ~verify:false ~op:(i + 1) ~machine bench
                    Partition.Methods.Gdp)
            in
            let p, dp =
              timed (fun () ->
                  Compile_op.plain ~verify:false ~spec bench Partition.Methods.Gdp)
            in
            traced_s := !traced_s +. dt;
            plain_s := !plain_s +. dp;
            let served =
              Result.map result_of_artifact (Minijson.parse s.bytes)
            in
            match (r, p, served) with
            | Ok r, Ok p, Ok a when r = p && r = a -> ()
            | Ok r, _, _ ->
                unfaithful := (s.job.Pr.id ^ ": " ^ Compile_op.result_line r) :: !unfaithful
            | Error m, _, _ -> unfaithful := (s.job.Pr.id ^ ": " ^ m) :: !unfaithful)
          round0;
        let root_s, uncovered_s = Trace.uncovered () in
        [
          ("traced_s", Minijson.float !traced_s);
          ("untraced_s", Minijson.float !plain_s);
          ("root_s", Minijson.float root_s);
          ("uncovered_s", Minijson.float uncovered_s);
          ( "layers",
            Hashtbl.fold
              (fun name (t, w) acc ->
                ( name,
                  Minijson.obj [ ("s", Minijson.float t); ("words", Minijson.float w) ] )
                :: acc)
              (Trace.totals ()) []
            |> List.sort compare |> Minijson.obj );
          ( "counts",
            Compile_bench.num_obj (Compile_bench.snapshot Compile_op.counts) );
          ("unfaithful", Minijson.list (List.rev_map Minijson.str !unfaithful));
        ]
      end
    in
    let failed = tally.failed + List.length mismatched in
    Minijson.obj
      ([
         ("workload", Minijson.str "service-closed");
         ("preset", Minijson.str "paper");
         ( "machine",
           Machine_spec.to_json (Settings.default Partition.Methods.Gdp).Settings.machine );
         ("ocaml_version", Minijson.str Sys.ocaml_version);
         ("seed", Minijson.int seed);
         ("traced", Minijson.bool traced);
         ("setup_s", Minijson.float setup_s);
         ("timed_s", Minijson.float timed_s);
         ("rounds", Minijson.int !round);
         ("round_size", Minijson.int round_size);
         ("attempted", Minijson.int tally.attempted);
         ("failed", Minijson.int failed);
         ( "errors",
           Minijson.list (List.map Minijson.str (List.rev tally.errors @ mismatched)) );
         ("latencies_s", floats tally.latencies);
         ("busy_s", Minijson.float tally.busy_s);
         ("probes_s", Calib.to_json ());
         ("queue_us", floats tally.queue_us);
         ("exec_us", floats tally.exec_us);
         ("deliver_us", floats tally.deliver_us);
         ("wire_us", floats tally.wire_us);
         ("cached", Minijson.int tally.cached);
         ("shed", Minijson.int tally.shed);
         ("gave_up", Minijson.int tally.gave_up);
         ("served_mismatches", Minijson.int tally.served_mismatches);
         ("crosscheck_jobs", Minijson.int (Array.length items));
         ("crosscheck_mismatches", Minijson.int (List.length mismatched));
         ("sim_cycles_total", Minijson.int (total "cycles"));
         ("dynamic_moves_total", Minijson.int (total "dynamic_moves"));
         ("perf_ratios", Minijson.list (List.map Minijson.float ratios));
         ("round_digests", Minijson.list (List.map Minijson.str round_digests));
         ( "peak_heap_bytes",
           Minijson.float (float_of_int (!peak_heap_words * (Sys.word_size / 8))) );
         ( "scrape",
           Minijson.obj
             (List.map
                (fun (k, p) -> (k, Minijson.float (scrape p)))
                [
                  ("hits", [ "cache"; "hits" ]);
                  ("warm_hits", [ "cache"; "warm_hits" ]);
                  ("misses", [ "cache"; "misses" ]);
                  ("coalesced", [ "coalesced" ]);
                  ("rejected", [ "rejected" ]);
                  ("served", [ "served" ]);
                  ("crashes", [ "pool"; "crashes" ]);
                  ("respawns", [ "pool"; "respawns" ]);
                ]) );
       ]
      @ traced_fields)
  end
