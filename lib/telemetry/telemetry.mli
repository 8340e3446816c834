(** Pipeline-wide tracing and metrics.

    A global telemetry registry: hierarchical wall-clock spans
    ([with_span]), monotonic counters and gauges, and pluggable sinks — a Chrome trace-event JSON exporter (open the file in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}), a
    plain-text span-tree summary with self/total times and allocated words, and a CSV metrics
    dump.

    Telemetry is disabled by default and near-zero-cost in that state:
    every recording entry point checks one boolean and returns.  Enable
    it around the region of interest (or use [capture] for an isolated
    recording), then render a [snapshot] through a sink.

    Domain safety (see [Par]): counters, gauges and histograms may be
    recorded from worker domains — the metric tables are lock-guarded,
    so concurrent [incr]/[observe] merge exactly.  Span recording stays
    on the main domain: [with_span] called from a worker just runs its
    body (workers' spans are dropped rather than interleaved into the
    main stack).  [enable]/[disable]/[reset]/[snapshot]/[capture] are
    main-domain operations; call them outside parallel regions.

    Diagnostic messages go through the [Logs] library under the
    ["telemetry"] source. *)

type span = {
  id : int;  (** unique per recording, increasing in open order *)
  parent : int option;  (** id of the enclosing span, if any *)
  name : string;
  start_us : float;  (** clock value when the span opened, microseconds *)
  dur_us : float;  (** wall-clock duration, microseconds *)
  words : float;
      (** words allocated while the span was open (minor + major -
          promoted, this domain only); 0 for [record_span] spans *)
  args : (string * string) list;  (** free-form key/value annotations *)
}

type metric =
  | Counter of int  (** monotonic: only ever incremented *)
  | Gauge of float  (** last-write-wins *)

type hist = {
  h_count : int;
  h_sum : float;
  h_min : float;  (** +inf when empty *)
  h_max : float;  (** -inf when empty *)
  h_buckets : int array;  (** fixed log2 buckets, [hist_buckets] long *)
}
(** A distribution over fixed log-scale buckets: bucket 0 holds values
    below 1, bucket [i] holds values in [2^(i-1), 2^i), the last bucket
    is open-ended.  Histograms live in their own namespace, separate
    from counters and gauges. *)

(** Number of buckets in every histogram. *)
val hist_buckets : int

(** Inclusive lower / exclusive upper value bound of a bucket (the last
    bucket's upper bound is [infinity]). *)
val hist_bucket_bounds : int -> float * float

type snapshot = {
  spans : span list;  (** completed spans, in start order *)
  metrics : (string * metric) list;  (** sorted by name *)
  hists : (string * hist) list;  (** sorted by name *)
}

(** {1 Recording state} *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

(** Drop all recorded spans and metrics (open spans survive). *)
val reset : unit -> unit

(** Override the clock (microsecond readings) — for deterministic tests.
    [set_clock None] restores the wall clock. *)
val set_clock : (unit -> float) option -> unit

(** {1 Recording} *)

(** [with_span name f] runs [f] inside a span.  The span is recorded
    (closed) even if [f] raises, with its duration and the words
    allocated while it was open.  When telemetry is disabled this is
    just [f ()]: no clock or allocation counter is read. *)
val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Attach an annotation to the innermost open span (no-op when disabled
    or when no span is open). *)
val span_arg : string -> string -> unit

(** Increment a monotonic counter.  Raises [Invalid_argument] on a
    negative increment or if [name] is already a gauge. *)
val incr : ?by:int -> string -> unit

(** Set a gauge.  Raises [Invalid_argument] if [name] is already a
    counter. *)
val set_gauge : string -> float -> unit

(** Current value of a counter (0 when unknown). *)
val counter_value : string -> int

(** Record one observation into a log-scale histogram (no-op when
    disabled).  Span durations are observed automatically under
    ["span_us:<name>"] when a span closes; attribution code feeds
    per-block cycle counts the same way. *)
val observe : string -> float -> unit

(** Microsecond reading of the telemetry clock, for callers that
    measure an interval themselves and record it with [record_span]. *)
val now_us : unit -> float

(** Record an already-measured interval as a completed span (no-op when
    disabled).  [start_us] must come from [now_us] so the recorded
    interval and [with_span] spans share one clock.  The span is
    parented under the innermost open span — asynchronously completed
    work (e.g. the process pool's jobs) lands in the timeline of the
    phase that dispatched it. *)
val record_span :
  ?args:(string * string) list ->
  string ->
  start_us:float ->
  dur_us:float ->
  unit

(** [timed name f] measures [f] with the telemetry clock and returns the
    elapsed seconds alongside the result.  When telemetry is enabled the
    measurement is also recorded as a span, so externally reported times
    and the trace come from the same clock. *)
val timed : string -> (unit -> 'a) -> 'a * float

(** {1 Snapshots} *)

(** The completed spans and metrics recorded so far. *)
val snapshot : unit -> snapshot

(** [capture f] runs [f] with telemetry enabled on a fresh, private
    recording and returns the resulting snapshot; the previous global
    recording state (including enabledness) is restored afterwards, even
    if [f] raises. *)
val capture : (unit -> 'a) -> 'a * snapshot

module Snapshot : sig
  val spans_named : snapshot -> string -> span list

  (** Sum of the durations of all spans with this name, in seconds. *)
  val total_seconds : snapshot -> string -> float

  val find_counter : snapshot -> string -> int option
  val find_gauge : snapshot -> string -> float option
  val find_hist : snapshot -> string -> hist option

  (** Direct children of a span, in start order. *)
  val children : snapshot -> span -> span list
end

(** {1 Sinks} *)

module Sink : sig
  (** Chrome trace-event JSON (one complete ["X"] event per span, one
      ["C"] counter sample per metric).  Load in [chrome://tracing] or
      Perfetto. *)
  val chrome_trace : Format.formatter -> snapshot -> unit

  val write_chrome_trace : string -> snapshot -> unit

  (** Plain-text span tree: spans aggregated by name under their parent,
      with total time, self time (total minus direct children), call
      counts and the words allocated inside the spans (children
      included). *)
  val span_tree : Format.formatter -> snapshot -> unit

  val metrics_table : Format.formatter -> snapshot -> unit

  (** Plain-text rendering of every histogram: count/mean/min/max and
      the non-empty buckets with hash-bar proportions. *)
  val histograms : Format.formatter -> snapshot -> unit

  (** [span_tree] followed by [metrics_table] and [histograms]. *)
  val summary : Format.formatter -> snapshot -> unit

  (** [summary] to a file, so CI can archive stats without scraping
      stdout (the [gdpc --stats-file] backend). *)
  val write_summary : string -> snapshot -> unit

  (** CSV dump of the metrics: [name,kind,value] with a header row. *)
  val metrics_csv : Format.formatter -> snapshot -> unit

  val write_metrics_csv : string -> snapshot -> unit

  (** CSV dump of the histograms: one row per non-empty bucket,
      [name,bucket_lo,bucket_hi,count] with a header row. *)
  val histograms_csv : Format.formatter -> snapshot -> unit

  val write_histograms_csv : string -> snapshot -> unit
end

(** {1 Sliding-window histograms}

    The live-metrics counterpart of the cumulative histograms above: a
    ring of time slots (default 6 slots of 10 s — a one-minute sliding
    window) whose stale slots expire as the clock advances, so
    [quantile] always answers over recent observations only.  Values go
    into sub-octave log-scale buckets (4 per octave); a quantile
    estimate is the geometric midpoint of its bucket, so for values
    [>= 1] the estimate is within a factor of [2^(1/8)] (about 9%,
    {!Winhist.max_rel_error}) of the exact rank-based quantile.  Values
    below 1 share one bucket and estimate as 0.5.

    Mutation and reads are guarded by a per-instance [Par.Lock], so
    worker domains may observe concurrently (same contract as the
    global metric tables).  Instances are independent of the global
    telemetry state: they record even when telemetry is disabled. *)
module Winhist : sig
  type t

  val create : ?clock:(unit -> float) -> ?slot_s:float -> ?slots:int -> unit -> t
  (** [clock] returns microseconds (defaults to the wall clock; inject
      a fake for deterministic tests — this clock is deliberately
      independent of {!set_clock}).  [slot_s] is the width of one slot
      in seconds (default 10), [slots] the ring size (default 6).
      Raises [Invalid_argument] when [slot_s <= 0] or [slots < 1]. *)

  val observe : t -> float -> unit

  val count : t -> int
  (** Observations currently inside the window. *)

  val sum : t -> float

  val min_max : t -> (float * float) option
  (** Exact extremes of the windowed observations; [None] when empty. *)

  val quantile : t -> float -> float
  (** [quantile t q] for [q] in [0, 1] ([q] is clamped).  0 when the
      window is empty. *)

  val quantiles : t -> float list -> float list
  (** All quantiles from one consistent merge of the window (a
      concurrent [observe] cannot skew p50 against p99). *)

  val window_s : t -> float
  (** Total window span in seconds ([slot_s * slots]). *)

  val max_rel_error : float
  (** Documented bucketing error bound: [2^(1/8) - 1] (~0.09) relative
      to the exact quantile, for values [>= 1]. *)

  val to_json : t -> Minijson.t
  (** [{count, sum, mean, p50, p95, p99, window_s}]. *)
end
