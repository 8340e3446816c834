(** The end-to-end GDP pipeline: MiniC source -> IR -> profile ->
    partitioning context -> method outcome -> cycle report.

    This is the library's main entry point; the experiment drivers and
    the examples are thin layers over it. *)

open Vliw_ir
module Methods = Partition.Methods

type prepared = {
  bench : Benchsuite.Bench_intf.t;
  prog : Prog.t;
  reference : Vliw_interp.Interp.result;
}

(** The front end's optimizer, in the one order every compile uses:
    scalar promotion, folding and copy propagation followed by DCE,
    if-conversion into predicated hyperblocks, then DCE again. *)
let optimize ?(promote = true) ?(simplify = true) ?(if_convert = true)
    ?ifconvert_config (prog : Prog.t) : Prog.t =
  Telemetry.with_span "optimize" (fun () ->
      let prog = if promote then Vliw_opt.Promote.run prog else prog in
      let prog =
        if simplify then Vliw_opt.Dce.run (Vliw_opt.Simplify.run prog)
        else prog
      in
      let prog =
        if if_convert then Vliw_opt.Ifconvert.run ?config:ifconvert_config prog
        else prog
      in
      if simplify then Vliw_opt.Dce.run prog else prog)

(** Compile a benchmark, form predicated hyperblocks (Trimaran-style
    if-conversion; pass [~if_convert:false] to keep raw basic blocks),
    and collect the reference run and profile. *)
let prepare ?(unroll = true) ?(promote = true) ?(simplify = true)
    ?(if_convert = true) ?ifconvert_config
    (bench : Benchsuite.Bench_intf.t) : prepared =
  Telemetry.with_span "prepare"
    ~args:[ ("bench", bench.Benchsuite.Bench_intf.name) ]
    (fun () ->
      let prog =
        Telemetry.with_span "parse" (fun () ->
            Minic.compile ~unroll bench.Benchsuite.Bench_intf.source)
      in
      let prog =
        optimize ~promote ~simplify ~if_convert ?ifconvert_config prog
      in
      Telemetry.set_gauge "ir.ops" (float (Vliw_ir.Prog.op_count prog));
      let reference =
        Telemetry.with_span "profile" (fun () ->
            Vliw_interp.Interp.run prog
              ~input:bench.Benchsuite.Bench_intf.input)
      in
      { bench; prog; reference })

(* With default front-end flags [prepare] is a pure function of the
   benchmark, and the experiment drivers sweep the same benchmark set
   once per move latency — without memoization every sweep recompiles,
   re-optimizes and re-profiles every benchmark.  Plain [Hashtbl] memo
   behind [cache_lock]: compiles happen outside the lock (a racing pair
   of workers may both compile, last write wins — the entries are
   equal), table accesses inside it.  The memo is bounded: long
   fuzzing runs stream thousands of distinct programs through the
   pipeline, and an unbounded memo would hold every compiled program
   alive.  On overflow the whole table is dropped (the suite has ~19
   benchmarks, far below the cap, so sweeps never evict). *)
let prepare_cache : (string, prepared) Hashtbl.t = Hashtbl.create 16
let prepare_cache_limit = 64

(* One lock for every process-wide cache this module owns or clears:
   the prepare memo, the clearer registry, and the [clearing] reentrancy
   flag.  Indispensable once [Par] pools exist — [clear_caches] (or a
   worker warming the memo) must not race a mutating registration. *)
let cache_lock = Par.Lock.create ()

let prepare_default (bench : Benchsuite.Bench_intf.t) : prepared =
  let name = bench.Benchsuite.Bench_intf.name in
  match
    Par.Lock.with_lock cache_lock (fun () ->
        Hashtbl.find_opt prepare_cache name)
  with
  | Some p -> p
  | None ->
      let p = prepare bench in
      Par.Lock.with_lock cache_lock (fun () ->
          if Hashtbl.length prepare_cache >= prepare_cache_limit then
            Hashtbl.reset prepare_cache;
          Hashtbl.replace prepare_cache name p);
      p

(* Downstream layers (e.g. the report explainer) keep their own bounded
   memos; they register a clearer here so one [clear_caches] call covers
   every cache in the process without this module depending on them.
   Registration is keyed and last-write-wins: a forked worker (or a test
   harness) that re-runs registration code must not end up with two
   copies of the same clearer, because [clear_caches] runs every entry
   and a stale duplicate could outlive the cache it clears. *)
let extra_clearers : (string, unit -> unit) Hashtbl.t = Hashtbl.create 8
let anon_clearers = ref 0

let register_cache_clearer ?key f =
  Par.Lock.with_lock cache_lock (fun () ->
      let key =
        match key with
        | Some k -> k
        | None ->
            incr anon_clearers;
            Printf.sprintf "<anonymous-%d>" !anon_clearers
      in
      Hashtbl.replace extra_clearers key f)

(* Guard against a clearer calling [clear_caches] back (directly or via
   a layer that "helpfully" clears everything): the inner call is a
   no-op instead of an infinite recursion.  The flag is checked-and-set
   under [cache_lock]; the clearers themselves run OUTSIDE the lock (on
   a snapshot of the registry) so a clearer that re-registers itself —
   the keyed-registration pattern — cannot deadlock on the
   non-reentrant mutex. *)
let clearing = ref false

let clear_caches () =
  let to_run =
    Par.Lock.with_lock cache_lock (fun () ->
        if !clearing then None
        else begin
          clearing := true;
          Hashtbl.reset prepare_cache;
          Some (Hashtbl.fold (fun _ f acc -> f :: acc) extra_clearers [])
        end)
  in
  match to_run with
  | None -> ()
  | Some fs ->
      Fun.protect
        ~finally:(fun () ->
          Par.Lock.with_lock cache_lock (fun () -> clearing := false))
        (fun () -> List.iter (fun f -> f ()) fs)

let context ?machine ?merge_low_slack (p : prepared) : Methods.context =
  let machine =
    match machine with Some m -> m | None -> Vliw_machine.paper_machine ()
  in
  Telemetry.with_span "context" (fun () ->
      Methods.make_context ?merge_low_slack ~machine ~prog:p.prog
        ~profile:p.reference.Vliw_interp.Interp.profile ())

type evaluation = {
  outcome : Methods.outcome;
  report : Vliw_sched.Perf.report;
}

(* Scope a [Par] pool of [par_workers] domains around one method run;
   1 (the default everywhere) never touches [Par].  The width changes
   only the wall clock, never the outcome.  The pool lives exactly as
   long as the partitioning work: it is torn down before control
   returns to callers that may fork ([Exec] pools), because worker
   domains do not survive [fork]. *)
let run_method ?rhop_config ?gdp_config ?(par_workers = 1) ctx method_ =
  if par_workers >= 2 then
    Par.with_pool ~domains:par_workers (fun pool ->
        Methods.run ?rhop_config ?gdp_config ~pool method_ ctx)
  else Methods.run ?rhop_config ?gdp_config method_ ctx

(* Run one method and price it under the cycle model — the shared core
   behind [run] and the [evaluate] wrapper. *)
let evaluate_with ?rhop_config ?gdp_config ?par_workers
    (ctx : Methods.context) method_ : evaluation =
  Telemetry.with_span "evaluate" ~args:[ ("method", Methods.name method_) ]
    (fun () ->
      let outcome =
        run_method ?rhop_config ?gdp_config ?par_workers ctx method_
      in
      let report = Methods.evaluate ctx outcome in
      { outcome; report })

(** Functional correctness: the clustered program must produce the
    reference outputs both under plain interpretation and under
    cycle-level simulation (which also checks resource legality).
    Returns an error message instead of raising so tests can assert. *)
let verify_body (p : prepared) (ctx : Methods.context) (e : evaluation) :
    (unit, string) result =
  let expected = p.reference.Vliw_interp.Interp.outputs in
  let input = p.bench.Benchsuite.Bench_intf.input in
  let check_outputs what got =
    if
      List.length got = List.length expected
      && List.for_all2 Vliw_interp.Interp.equal_value got expected
    then Ok ()
    else Error (Fmt.str "%s outputs differ from the reference run" what)
  in
  match
    Telemetry.with_span "interpret-clustered" (fun () ->
        Vliw_interp.Interp.run
          e.outcome.Methods.clustered.Vliw_sched.Move_insert.cprog ~input)
  with
  | exception Vliw_interp.Interp.Runtime_error m ->
      Error ("clustered interpretation failed: " ^ m)
  | re -> (
      match check_outputs "clustered interpretation" re.Vliw_interp.Interp.outputs with
      | Error _ as err -> err
      | Ok () -> (
          match
            Vliw_sched.Vliw_sim.run e.outcome.Methods.clustered
              ~machine:ctx.Methods.machine
              ~objects_of:(Methods.objects_of ctx) ~input ()
          with
          | exception Vliw_sched.Vliw_sim.Sim_error m ->
              Error ("cycle simulation failed: " ^ m)
          | sim -> (
              match check_outputs "cycle simulation" sim.Vliw_sched.Vliw_sim.outputs with
              | Error _ as err -> err
              | Ok () ->
                  if sim.Vliw_sched.Vliw_sim.cycles <> e.report.Vliw_sched.Perf.total_cycles
                  then
                    Error
                      (Fmt.str
                         "simulated cycles (%d) disagree with the static \
                          model (%d)"
                         sim.Vliw_sched.Vliw_sim.cycles
                         e.report.Vliw_sched.Perf.total_cycles)
                  else if
                    sim.Vliw_sched.Vliw_sim.dynamic_moves
                    <> e.report.Vliw_sched.Perf.dynamic_moves
                  then
                    Error
                      (Fmt.str
                         "simulated moves (%d) disagree with the static \
                          model (%d)"
                         sim.Vliw_sched.Vliw_sim.dynamic_moves
                         e.report.Vliw_sched.Perf.dynamic_moves)
                  else Ok ())))

let verify p ctx e = Telemetry.with_span "verify" (fun () -> verify_body p ctx e)

(* ------------------------------------------------------------------ *)
(* Graceful degradation                                                *)

(* [evaluate_with], with the pipeline's internal invariants promoted
   from exceptions to a checked result: any stage failure (partitioner
   constraint violations, invalid move insertion, assignment-invariant
   breaks, scheduler/simulator errors) comes back as [Error], and the
   clustered assignment is structurally validated (every op clustered,
   memory ops on their objects' home clusters, register webs on one
   cluster).  With [?verify_against] the full differential check
   (clustered interpretation + cycle simulation vs. the reference run)
   is included. *)
let checked_with ?rhop_config ?gdp_config ?par_workers ?verify_against
    (ctx : Methods.context) method_ : (evaluation, string) result =
  match
    Telemetry.with_span "evaluate-checked"
      ~args:[ ("method", Methods.name method_) ]
      (fun () ->
        let outcome =
          run_method ?rhop_config ?gdp_config ?par_workers ctx method_
        in
        Vliw_sched.Assignment.validate
          outcome.Methods.clustered.Vliw_sched.Move_insert.cassign
          outcome.Methods.clustered.Vliw_sched.Move_insert.cprog
          ~objects_of:(Methods.objects_of ctx);
        let report = Methods.evaluate ctx outcome in
        { outcome; report })
  with
  | e -> (
      match verify_against with
      | None -> Ok e
      | Some p -> Result.map (fun () -> e) (verify p ctx e))
  | exception Vliw_sched.Assignment.Invalid m ->
      Error ("assignment invariant violated: " ^ m)
  | exception Vliw_ir.Validate.Invalid m -> Error ("invalid IR: " ^ m)
  | exception Vliw_sched.Vliw_sim.Sim_error m ->
      Error ("cycle simulation failed: " ^ m)
  | exception Vliw_interp.Interp.Runtime_error m ->
      Error ("interpretation failed: " ^ m)
  | exception Invalid_argument m -> Error m
  | exception Failure m -> Error m

type fallback = {
  failed_method : string;
  reason : string;  (** why verification or an invariant rejected it *)
}

type robust = {
  requested : Methods.t;
  used : Methods.t;  (** the first method in the chain that passed *)
  evaluation : evaluation;
  fallbacks : fallback list;  (** failed attempts before [used], in order *)
}

let pp_fallback ppf f =
  Fmt.pf ppf "%s failed: %s" f.failed_method f.reason

(* Evaluate [method_] with full verification against the reference
   run, degrading along [Methods.fallback_chain] (GDP -> Profile Max
   -> Naive -> Unified) when a method's partition or schedule fails an
   invariant or the differential check.  Every failure is recorded in
   the result (and counted as a detected fault); a successful fallback
   counts as a recovery.  [Error] only when every method in the chain
   fails. *)
let robust_with ?rhop_config ?gdp_config ?par_workers ~verify
    (p : prepared) (ctx : Methods.context) method_ : (robust, string) result =
  Telemetry.with_span "evaluate-robust"
    ~args:[ ("method", Methods.name method_) ]
  @@ fun () ->
  let verify_against = if verify then Some p else None in
  let rec go fallbacks = function
    | [] ->
        Error
          (Fmt.str "all methods failed: %a"
             Fmt.(list ~sep:(any "; ") pp_fallback)
             (List.rev fallbacks))
    | m :: rest -> (
        match
          checked_with ?rhop_config ?gdp_config ?par_workers ?verify_against
            ctx m
        with
        | Ok e ->
            if fallbacks <> [] then begin
              Fault.note_recovered ();
              Telemetry.incr "pipeline.fallbacks" ~by:(List.length fallbacks);
              Logs.warn (fun l ->
                  l "pipeline: %s degraded to %s after %d failure(s)"
                    (Methods.name method_) (Methods.name m)
                    (List.length fallbacks))
            end;
            Ok
              {
                requested = method_;
                used = m;
                evaluation = e;
                fallbacks = List.rev fallbacks;
              }
        | Error reason ->
            Fault.note_detected ();
            Logs.warn (fun l ->
                l "pipeline: method %s rejected: %s" (Methods.name m) reason);
            go ({ failed_method = Methods.name m; reason } :: fallbacks) rest)
  in
  go [] (Methods.fallback_chain method_)

(* ------------------------------------------------------------------ *)
(* Settings: one record for everything the optional arguments used to
   plumb, serializable so jobs can cross a process boundary.           *)

module Settings = struct
  type t = {
    machine : Machine_spec.t;
    method_ : Methods.t;
    unroll : bool;
    promote : bool;
    simplify : bool;
    if_convert : bool;
    merge_low_slack : bool option;
    rhop : Partition.Rhop.config option;
    gdp : Partition.Gdp.config option;
  }

  let schema = "gdp-settings/1"

  (* Bumped when the settings record grows a field with changed
     semantics.  [of_json] accepts documents up to this version (a
     missing field reads as 1) and rejects newer ones, so an old server
     fails a too-new client with a clear message instead of
     misinterpreting it.  Version history:
     - 1: the original record.
     - 2: adds [par_domains] (missing field reads as 1).  The field has
       since left the record: [of_json] still accepts an int >= 1 and
       ignores it, [to_json] no longer emits it.
     - 3: replaces the bare [clusters]/[move_latency] ints with a
       ["machine"] field (a [Machine_spec] document or preset name).
       Legacy pairs are still accepted and canonicalized through
       [Machine_spec.of_legacy]; [to_json] emits the legacy pair (as a
       version-2 document) whenever the spec has that shape. *)
  let version = 3

  let default method_ =
    {
      machine = Machine_spec.of_legacy ~clusters:2 ~move_latency:5;
      method_;
      unroll = true;
      promote = true;
      simplify = true;
      if_convert = true;
      merge_low_slack = None;
      rhop = None;
      gdp = None;
    }

  let machine (s : t) = Machine_spec.resolve s.machine

  let default_front_end (s : t) =
    s.unroll && s.promote && s.simplify && s.if_convert

  let to_json (s : t) : Minijson.t =
    let rhop_json (c : Partition.Rhop.config) =
      Minijson.obj
        [
          ( "xmove_weight",
            Minijson.option Minijson.int c.Partition.Rhop.xmove_weight );
          ("coarsen_until", Minijson.int c.Partition.Rhop.coarsen_until);
          ("max_passes", Minijson.int c.Partition.Rhop.max_passes);
        ]
    in
    let gdp_json (c : Partition.Gdp.config) =
      Minijson.obj
        [
          ("data_imbalance", Minijson.float c.Partition.Gdp.data_imbalance);
          ("op_imbalance", Minijson.float c.Partition.Gdp.op_imbalance);
          ("seed", Minijson.int c.Partition.Gdp.seed);
        ]
    in
    (* Legacy-shaped machines round-trip through the version-2 wire
       form (bare ints), so a v2 reader can parse every document for a
       machine a v2 client could name.  Anything else needs the v3
       ["machine"] field. *)
    let machine_fields =
      match Machine_spec.legacy_shape s.machine with
      | Some (clusters, move_latency) ->
          [
            ("version", Minijson.int 2);
            ("clusters", Minijson.int clusters);
            ("move_latency", Minijson.int move_latency);
          ]
      | None ->
          [
            ("version", Minijson.int version);
            ("machine", Machine_spec.to_json s.machine);
          ]
    in
    Minijson.obj
      ([ ("schema", Minijson.str schema) ]
      @ machine_fields
      @ [ ("method", Minijson.str (Methods.to_string s.method_)) ]
      @ [
        ("unroll", Minijson.bool s.unroll);
        ("promote", Minijson.bool s.promote);
        ("simplify", Minijson.bool s.simplify);
        ("if_convert", Minijson.bool s.if_convert);
        ("merge_low_slack", Minijson.option Minijson.bool s.merge_low_slack);
        ("rhop", Minijson.option rhop_json s.rhop);
        ("gdp", Minijson.option gdp_json s.gdp);
      ])

  let ( let* ) = Result.bind

  let field name doc =
    match Minijson.member name doc with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "settings: missing field %S" name)

  let as_int name v =
    match Minijson.to_int v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "settings: field %S is not an integer" name)

  let as_float name v =
    match Minijson.to_float v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "settings: field %S is not a number" name)

  let as_bool name v =
    match v with
    | Minijson.Bool b -> Ok b
    | _ -> Error (Printf.sprintf "settings: field %S is not a boolean" name)

  let int_field name doc = Result.bind (field name doc) (as_int name)
  let bool_field name doc = Result.bind (field name doc) (as_bool name)

  let nullable name parse doc =
    match Minijson.member name doc with
    | None | Some Minijson.Null -> Ok None
    | Some v -> Result.map Option.some (parse name v)

  (* Strict field checking: a key we do not know is rejected by name
     instead of silently ignored — a typo'd option must fail loudly,
     especially now that settings documents arrive over the [gdpcd]
     wire.  Fields added in future versions belong behind a version
     bump, which is rejected above with its own message. *)
  let reject_unknown ~where ~known doc =
    match doc with
    | Minijson.Obj fields ->
        let rec go = function
          | [] -> Ok ()
          | (k, _) :: rest ->
              if List.mem k known then go rest
              else
                Error
                  (Printf.sprintf
                     "settings: unknown field %S%s (known fields: %s)" k where
                     (String.concat ", " known))
        in
        go fields
    | _ -> Error (Printf.sprintf "settings: expected an object%s" where)

  let rhop_of_json doc =
    let* () =
      reject_unknown ~where:" in \"rhop\""
        ~known:[ "xmove_weight"; "coarsen_until"; "max_passes" ]
        doc
    in
    let* xmove_weight = nullable "xmove_weight" as_int doc in
    let* coarsen_until = int_field "coarsen_until" doc in
    let* max_passes = int_field "max_passes" doc in
    Ok { Partition.Rhop.xmove_weight; coarsen_until; max_passes }

  let gdp_of_json doc =
    let* () =
      reject_unknown ~where:" in \"gdp\""
        ~known:[ "data_imbalance"; "op_imbalance"; "seed" ]
        doc
    in
    let* data_imbalance = Result.bind (field "data_imbalance" doc) (as_float "data_imbalance") in
    let* op_imbalance = Result.bind (field "op_imbalance" doc) (as_float "op_imbalance") in
    let* seed = int_field "seed" doc in
    Ok { Partition.Gdp.data_imbalance; op_imbalance; seed }

  let known_fields =
    [
      "schema";
      "version";
      "machine";
      "clusters";
      "move_latency";
      "method";
      "unroll";
      "promote";
      "simplify";
      "if_convert";
      "merge_low_slack";
      "rhop";
      "gdp";
      "par_domains";
    ]

  let of_json (doc : Minijson.t) : (t, string) result =
    let* schema_v = field "schema" doc in
    let* () =
      match Minijson.to_string schema_v with
      | Some s when s = schema -> Ok ()
      | Some s -> Error (Printf.sprintf "settings: unknown schema %S" s)
      | None -> Error "settings: schema is not a string"
    in
    let* v =
      match Minijson.member "version" doc with
      | None -> Ok 1  (* pre-version documents *)
      | Some v -> as_int "version" v
    in
    let* () =
      if v < 1 then Error (Printf.sprintf "settings: invalid version %d" v)
      else if v > version then
        Error
          (Printf.sprintf
             "settings: version %d is newer than this build supports (%d) — \
              upgrade the server"
             v version)
      else Ok ()
    in
    let* () = reject_unknown ~where:"" ~known:known_fields doc in
    (* Machine description: the v3 ["machine"] field (a preset name or
       a gdp-machine/1 spec object), or the legacy v1/v2
       ["clusters"]/["move_latency"] pair canonicalized through
       [Machine_spec.of_legacy].  Exactly one of the two forms. *)
    let* machine =
      match
        ( Minijson.member "machine" doc,
          Minijson.member "clusters" doc,
          Minijson.member "move_latency" doc )
      with
      | Some _, Some _, _ | Some _, _, Some _ ->
          Error
            "settings: \"machine\" conflicts with the legacy \
             \"clusters\"/\"move_latency\" fields"
      | Some (Minijson.Str name), None, None ->
          Result.map_error
            (fun e -> "settings: " ^ e)
            (Machine_spec.preset name)
      | Some (Minijson.Obj _ as spec), None, None ->
          Result.map_error (fun e -> "settings: " ^ e)
            (Machine_spec.of_json spec)
      | Some _, None, None ->
          Error "settings: \"machine\" must be a preset name or a spec object"
      | None, _, _ ->
          let* clusters = int_field "clusters" doc in
          let* move_latency = int_field "move_latency" doc in
          if clusters < 1 then
            Error
              (Printf.sprintf "settings: clusters must be >= 1 (got %d)"
                 clusters)
          else Ok (Machine_spec.of_legacy ~clusters ~move_latency)
    in
    let* method_v = field "method" doc in
    let* method_ =
      match Minijson.to_string method_v with
      | Some s -> Methods.of_string s
      | None -> Error "settings: method is not a string"
    in
    let* unroll = bool_field "unroll" doc in
    let* promote = bool_field "promote" doc in
    let* simplify = bool_field "simplify" doc in
    let* if_convert = bool_field "if_convert" doc in
    let* merge_low_slack = nullable "merge_low_slack" as_bool doc in
    let* rhop =
      match Minijson.member "rhop" doc with
      | None | Some Minijson.Null -> Ok None
      | Some v -> Result.map Option.some (rhop_of_json v)
    in
    let* gdp =
      match Minijson.member "gdp" doc with
      | None | Some Minijson.Null -> Ok None
      | Some v -> Result.map Option.some (gdp_of_json v)
    in
    (* version 2's [par_domains] no longer selects anything: it is
       still validated, then ignored *)
    let* () =
      match Minijson.member "par_domains" doc with
      | None -> Ok ()
      | Some v ->
          let* n = as_int "par_domains" v in
          if n < 1 then
            Error
              (Printf.sprintf "settings: par_domains must be >= 1 (got %d)" n)
          else Ok ()
    in
    Ok
      {
        machine;
        method_;
        unroll;
        promote;
        simplify;
        if_convert;
        merge_low_slack;
        rhop;
        gdp;
      }
end

(* Prepare under the settings' front-end flags.  All-default flags take
   the memoized path, which matters in pool workers: every job of a
   batch shares one compile + profile. *)
let prepare_with (s : Settings.t) bench =
  if Settings.default_front_end s then prepare_default bench
  else
    prepare ~unroll:s.Settings.unroll ~promote:s.Settings.promote
      ~simplify:s.Settings.simplify ~if_convert:s.Settings.if_convert bench

(* ------------------------------------------------------------------ *)
(* The settings-driven entry point.                                    *)

type mode = Plain | Checked of { verify : bool } | Robust of { verify : bool }
type run_result = Evaluated of evaluation | Degraded of robust

let run ?prepared:p ?ctx ?(mode = Plain) ?par_workers (s : Settings.t) :
    (run_result, string) result =
  let rhop_config = s.Settings.rhop and gdp_config = s.Settings.gdp in
  let method_ = s.Settings.method_ in
  let ctx_result =
    match (ctx, p) with
    | Some c, _ -> Ok c
    | None, Some p ->
        Ok
          (context ~machine:(Settings.machine s)
             ?merge_low_slack:s.Settings.merge_low_slack p)
    | None, None -> Error "Pipeline.run: needs ~prepared or ~ctx"
  in
  match ctx_result with
  | Error _ as e -> e
  | Ok ctx -> (
      match mode with
      | Plain ->
          Ok
            (Evaluated
               (evaluate_with ?rhop_config ?gdp_config
                  ?par_workers ctx method_))
      | Checked { verify } -> (
          match (verify, p) with
          | true, None ->
              Error "Pipeline.run: Checked verification needs ~prepared"
          | verify, _ ->
              let verify_against = if verify then p else None in
              Result.map
                (fun e -> Evaluated e)
                (checked_with ?rhop_config ?gdp_config
                   ?par_workers ?verify_against ctx method_))
      | Robust { verify } -> (
          match p with
          | None -> Error "Pipeline.run: Robust mode needs ~prepared"
          | Some p ->
              Result.map
                (fun r -> Degraded r)
                (robust_with ?rhop_config ?gdp_config
                   ?par_workers ~verify p ctx method_)))

(* ------------------------------------------------------------------ *)
(* Compatibility wrappers: the pre-[Settings] signatures, re-expressed
   over [run].                                                         *)

let settings_for ?rhop_config ?gdp_config method_ =
  { (Settings.default method_) with rhop = rhop_config; gdp = gdp_config }

let evaluate ?rhop_config ?gdp_config ctx method_ =
  match
    run ~ctx ~mode:Plain (settings_for ?rhop_config ?gdp_config method_)
  with
  | Ok (Evaluated e) -> e
  | Ok (Degraded _) -> assert false
  | Error m -> failwith m

let evaluate_checked ?rhop_config ?gdp_config ?verify_against ctx method_ =
  let mode = Checked { verify = verify_against <> None } in
  match
    run ?prepared:verify_against ~ctx ~mode
      (settings_for ?rhop_config ?gdp_config method_)
  with
  | Ok (Evaluated e) -> Ok e
  | Ok (Degraded _) -> assert false
  | Error m -> Error m

let evaluate_robust ?rhop_config ?gdp_config ?(verify = true) p ctx method_ =
  match
    run ~prepared:p ~ctx ~mode:(Robust { verify })
      (settings_for ?rhop_config ?gdp_config method_)
  with
  | Ok (Degraded r) -> Ok r
  | Ok (Evaluated _) -> assert false
  | Error m -> Error m
