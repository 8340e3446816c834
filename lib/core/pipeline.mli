(** The end-to-end GDP pipeline: MiniC source -> optimized IR -> profile
    -> partitioning context -> method outcome -> cycle report, plus
    full verification. *)

type prepared = {
  bench : Benchsuite.Bench_intf.t;
  prog : Vliw_ir.Prog.t;
  reference : Vliw_interp.Interp.result;
}

(** The front end's optimizer under an ["optimize"] span: scalar
    promotion, folding and copy propagation followed by DCE,
    if-conversion, then DCE again, each pass on unless switched off
    ([simplify] switches both DCE runs).  [prepare] and [gdpc compile]
    / [gdpc run] all optimize through it. *)
val optimize :
  ?promote:bool ->
  ?simplify:bool ->
  ?if_convert:bool ->
  ?ifconvert_config:Vliw_opt.Ifconvert.config ->
  Vliw_ir.Prog.t ->
  Vliw_ir.Prog.t

(** Compile a benchmark (unrolling, scalar promotion, simplification,
    if-conversion — each individually togglable) and collect the
    reference run and profile. *)
val prepare :
  ?unroll:bool ->
  ?promote:bool ->
  ?simplify:bool ->
  ?if_convert:bool ->
  ?ifconvert_config:Vliw_opt.Ifconvert.config ->
  Benchsuite.Bench_intf.t ->
  prepared

(** [prepare] with default flags, memoized by benchmark name — the
    front end is deterministic, so latency sweeps that revisit the same
    benchmark reuse one compile + profile.  The memo is guarded by an
    internal lock, so [Par] pool workers may warm it concurrently (the
    compile itself runs outside the lock; duplicate compiles of the
    same benchmark are equal and last write wins).  Callers
    that vary the optional flags must use [prepare] directly.  The memo
    is bounded (it resets when it outgrows the benchmark suite by a wide
    margin), and [clear_caches] empties it on demand — fuzzing loops
    call that between iterations so memory stays flat. *)
val prepare_default : Benchsuite.Bench_intf.t -> prepared

(** Drop the [prepare_default] memo and run every registered clearer
    ([Experiments.clear_cache] drops the experiment sweep memo).
    Re-entrant: a clearer that calls [clear_caches] back gets a no-op,
    not an infinite recursion.  Domain-safe: the registry and the memo
    are mutated under the cache lock, so clearing while [Par] worker
    domains are live (or while another domain registers a clearer)
    cannot corrupt the tables; the clearers themselves run outside the
    lock on a snapshot of the registry, so one that re-registers itself
    cannot deadlock.

    {b Fork-safety contract.}  Every cache behind this call is a plain
    in-process [Hashtbl]: a forked child (an [Exec] pool worker) gets a
    copy-on-write copy and the parent and child diverge from there —
    nothing is shared, nothing needs locking, and a child clearing (or
    filling) its caches never affects the parent.  What a child must
    {e not} do is re-register the clearers it already inherited:
    registration is therefore keyed and idempotent (see
    [register_cache_clearer]), so module-initialization code that runs
    again in a worker replaces its entry instead of appending a
    duplicate that [clear_caches] would run twice. *)
val clear_caches : unit -> unit

(** Register an extra cache clearer to be run by [clear_caches].
    Downstream layers with their own memos (e.g. the report explainer)
    register here so fuzzing loops that call [clear_caches] between
    iterations keep the whole process flat on memory.

    [key] makes the registration idempotent: registering under an
    existing key replaces that entry (last write wins).  Pass a stable
    key (e.g. ["report.explain"]) from module-initialization code —
    anonymous registrations cannot be deduplicated if the registration
    site runs more than once per process. *)
val register_cache_clearer : ?key:string -> (unit -> unit) -> unit

(** Partitioning context on a machine (default: the paper's 2-cluster
    machine at 5-cycle move latency). *)
val context :
  ?machine:Vliw_machine.t ->
  ?merge_low_slack:bool ->
  prepared ->
  Partition.Methods.context

type evaluation = {
  outcome : Partition.Methods.outcome;
  report : Vliw_sched.Perf.report;
}

(** Deprecated — thin wrapper over {!run} with [mode = Plain]; new code
    should build a {!Settings.t} and call {!run}. *)
val evaluate :
  ?rhop_config:Partition.Rhop.config ->
  ?gdp_config:Partition.Gdp.config ->
  Partition.Methods.context ->
  Partition.Methods.t ->
  evaluation

(** Full verification: the clustered program's interpretation and its
    cycle-level simulation must reproduce the reference outputs, and the
    simulator's cycle/move counts must equal the static model's. *)
val verify :
  prepared ->
  Partition.Methods.context ->
  evaluation ->
  (unit, string) result

(** [evaluate] with every internal invariant checked instead of raised:
    stage exceptions become [Error], the clustered assignment is
    structurally validated, and with [?verify_against] the full
    differential check against the reference run is included.
    Deprecated — thin wrapper over {!run} with [mode = Checked _]. *)
val evaluate_checked :
  ?rhop_config:Partition.Rhop.config ->
  ?gdp_config:Partition.Gdp.config ->
  ?verify_against:prepared ->
  Partition.Methods.context ->
  Partition.Methods.t ->
  (evaluation, string) result

type fallback = {
  failed_method : string;
  reason : string;  (** why verification or an invariant rejected it *)
}

type robust = {
  requested : Partition.Methods.t;
  used : Partition.Methods.t;  (** first method in the chain that passed *)
  evaluation : evaluation;
  fallbacks : fallback list;  (** failed attempts before [used], in order *)
}

val pp_fallback : fallback Fmt.t

(** Evaluate with graceful degradation along
    [Partition.Methods.fallback_chain] (GDP -> Profile Max -> Naive ->
    Unified): a method whose partition or schedule fails an invariant or
    (with [verify], the default) the differential check is recorded as a
    fallback and the next method is tried.  Failures count as detected
    faults and a successful fallback as a recovery ([Fault.counts]).
    [Error] only when every method in the chain fails.
    Deprecated — thin wrapper over {!run} with [mode = Robust _]. *)
val evaluate_robust :
  ?rhop_config:Partition.Rhop.config ->
  ?gdp_config:Partition.Gdp.config ->
  ?verify:bool ->
  prepared ->
  Partition.Methods.context ->
  Partition.Methods.t ->
  (robust, string) result

(** {1 Settings}

    Everything the evaluation entry points used to take as scattered
    optional arguments, as one first-class, serializable record.  The
    JSON form ([schema "gdp-settings/1"]) is what crosses the pipe to
    [Exec] pool workers. *)

module Settings : sig
  type t = {
    machine : Machine_spec.t;
        (** declarative machine description (version 3); legacy
            [clusters]/[move_latency] documents canonicalize to
            [Machine_spec.of_legacy] *)
    method_ : Partition.Methods.t;
    unroll : bool;  (** front-end flags, as in [prepare] *)
    promote : bool;
    simplify : bool;
    if_convert : bool;
    merge_low_slack : bool option;  (** [None] = context default *)
    rhop : Partition.Rhop.config option;  (** [None] = partitioner default *)
    gdp : Partition.Gdp.config option;
  }

  (** Paper defaults: the 2-cluster bus machine with 5-cycle moves, all
      front-end passes on, default partitioner configs. *)
  val default : Partition.Methods.t -> t

  (** The concrete machine the settings describe:
      [Machine_spec.resolve] of the spec.  Raises [Invalid_argument]
      for unrealizable specs (never for specs [of_json] accepted). *)
  val machine : t -> Vliw_machine.t

  (** True when every front-end flag has its default value — exactly
      the settings under which [prepare_with] may take the memoized
      [prepare_default] path. *)
  val default_front_end : t -> bool

  (** Format version emitted by [to_json] (as a ["version"] field) and
      the newest version [of_json] accepts; a document without the
      field reads as version 1, a newer one is rejected with a message
      telling the operator to upgrade. *)
  val version : int

  (** [of_json (to_json s) = Ok s] for every [s] (the numbers involved
      are finite).  [of_json] is strict: unknown schemas, too-new
      [version]s, unknown method names, shape mismatches {e and any
      field it does not know} (top-level or inside
      ["rhop"]/["gdp"]/["machine"]) are rejected with a descriptive
      [Error] naming the offender — a typo'd option must fail loudly
      rather than be silently ignored, especially now that settings
      documents arrive over the [gdpcd] wire.

      The machine travels as the ["machine"] field — a preset name or a
      gdp-machine/1 spec object — except that legacy-shaped specs are
      emitted as the version-2 ["clusters"]/["move_latency"] pair.  A
      document carrying both forms at once is rejected.  A version-2
      ["par_domains"] field is accepted (an int >= 1) and ignored: the
      domain count is an execution width, not a setting. *)
  val to_json : t -> Minijson.t

  val of_json : Minijson.t -> (t, string) result
end

(** Prepare a benchmark under the settings' front-end flags; with all
    flags at their defaults this is [prepare_default] (memoized). *)
val prepare_with : Settings.t -> Benchsuite.Bench_intf.t -> prepared

(** How much checking {!run} performs: [Plain] is [evaluate] (internal
    errors raise), [Checked] promotes invariant violations to [Error]
    (with [verify], the full differential check — needs [~prepared]),
    and [Robust] degrades along the fallback chain. *)
type mode = Plain | Checked of { verify : bool } | Robust of { verify : bool }

type run_result =
  | Evaluated of evaluation  (** [Plain] and [Checked] modes *)
  | Degraded of robust  (** [Robust] mode *)

(** The settings-driven entry point behind [evaluate],
    [evaluate_checked] and [evaluate_robust].  The context is built
    from [~prepared] on the machine {!Settings.machine} describes, or
    supplied ready-made with [~ctx] (whose machine then wins — the
    settings' [machine] spec is ignored).  At least one of
    the two is required, and modes that verify against the reference
    run ([Checked {verify = true}], [Robust _]) need [~prepared].

    [?par_workers] (default 1) is how many domains run the partitioning
    passes.  It is an execution width only: the result is the same for
    every value, just faster or slower.  See [docs/parallelism.md]. *)
val run :
  ?prepared:prepared ->
  ?ctx:Partition.Methods.context ->
  ?mode:mode ->
  ?par_workers:int ->
  Settings.t ->
  (run_result, string) result
