(** See telemetry.mli.

    Domain-safety model: the span stack and completed-span list are
    owned by the main domain — [with_span]/[span_arg]/[record_span]
    called from a [Par] worker domain run their body without recording
    (a worker's spans would otherwise interleave into a foreign stack).
    Counters, gauges and histograms ARE recorded from workers: the two
    metric tables are guarded by [metrics_lock], so concurrent
    [incr]/[observe] merge instead of racing.  On OCaml 4.x the lock
    compiles to a no-op and every call site behaves exactly as before.

    [enable]/[disable]/[reset]/[capture]/[snapshot] are main-domain
    operations; call them outside parallel regions. *)

let log_src = Logs.Src.create "telemetry" ~doc:"GDP telemetry subsystem"

module Log = (val Logs.src_log log_src : Logs.LOG)

type span = {
  id : int;
  parent : int option;
  name : string;
  start_us : float;
  dur_us : float;
  words : float;
  args : (string * string) list;
}

type metric = Counter of int | Gauge of float

type hist = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_buckets : int array;
}

(* Bucket 0 holds values below 1, bucket i holds [2^(i-1), 2^i), the
   last bucket is open-ended: 40 buckets cover up to 2^38 (~4.5 days in
   microseconds, ~10^11 cycles), plenty for span durations and block
   cycle counts alike. *)
let hist_buckets = 40

let hist_bucket_bounds i =
  if i < 0 || i >= hist_buckets then
    invalid_arg (Printf.sprintf "Telemetry.hist_bucket_bounds: %d" i)
  else if i = 0 then (0., 1.)
  else if i = hist_buckets - 1 then (Float.of_int (1 lsl (i - 1)), infinity)
  else (Float.of_int (1 lsl (i - 1)), Float.of_int (1 lsl i))

let bucket_of v =
  if not (v >= 1.) (* also catches NaN *) then 0
  else min (hist_buckets - 1) (1 + int_of_float (Float.log2 v))

type snapshot = {
  spans : span list;
  metrics : (string * metric) list;
  hists : (string * hist) list;
}

type open_span = {
  o_id : int;
  o_parent : int option;
  o_name : string;
  o_start : float;
  o_words : float;
  mutable o_args : (string * string) list;
}

type hist_acc = {
  mutable ha_count : int;
  mutable ha_sum : float;
  mutable ha_min : float;
  mutable ha_max : float;
  ha_buckets : int array;
}

type state = {
  mutable enabled : bool;
  mutable completed : span list;  (** reverse completion order *)
  mutable stack : open_span list;  (** innermost first *)
  mutable next_id : int;
  table : (string, metric) Hashtbl.t;
  hist_table : (string, hist_acc) Hashtbl.t;
}

let fresh_state () =
  {
    enabled = false;
    completed = [];
    stack = [];
    next_id = 0;
    table = Hashtbl.create 32;
    hist_table = Hashtbl.create 16;
  }

let st = ref (fresh_state ())

(* Guards [table] and [hist_table] (the only state worker domains may
   touch).  The enabled flag is read unlocked: it only flips outside
   parallel regions, and a stale read merely skips/records one sample. *)
let metrics_lock = Par.Lock.create ()

let default_clock () = Unix.gettimeofday () *. 1e6
let clock = ref default_clock
let set_clock = function
  | Some f -> clock := f
  | None -> clock := default_clock

let is_enabled () = !st.enabled

let enable () =
  if not !st.enabled then Log.debug (fun m -> m "recording enabled");
  !st.enabled <- true

let disable () = !st.enabled <- false

let reset () =
  let s = !st in
  s.completed <- [];
  s.next_id <- 0;
  Par.Lock.with_lock metrics_lock (fun () ->
      Hashtbl.reset s.table;
      Hashtbl.reset s.hist_table)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let observe_in (s : state) name v =
  let acc =
    match Hashtbl.find_opt s.hist_table name with
    | Some acc -> acc
    | None ->
        let acc =
          {
            ha_count = 0;
            ha_sum = 0.;
            ha_min = infinity;
            ha_max = neg_infinity;
            ha_buckets = Array.make hist_buckets 0;
          }
        in
        Hashtbl.replace s.hist_table name acc;
        acc
  in
  acc.ha_count <- acc.ha_count + 1;
  acc.ha_sum <- acc.ha_sum +. v;
  acc.ha_min <- Float.min acc.ha_min v;
  acc.ha_max <- Float.max acc.ha_max v;
  let b = bucket_of v in
  acc.ha_buckets.(b) <- acc.ha_buckets.(b) + 1

let observe name v =
  let s = !st in
  if s.enabled then
    Par.Lock.with_lock metrics_lock (fun () -> observe_in s name v)

(* Words this domain has allocated so far: minor + major - promoted, as
   the benchmark's traced run counts them.  [Gc.minor_words] reads the
   live minor-heap pointer; direct major allocations reach the counters
   only at GC slices, so they can shift between neighbouring spans. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let close_span (s : state) (o : open_span) ~end_us ~end_words =
  let dur_us = Float.max 0. (end_us -. o.o_start) in
  Par.Lock.with_lock metrics_lock (fun () ->
      observe_in s ("span_us:" ^ o.o_name) dur_us);
  s.completed <-
    {
      id = o.o_id;
      parent = o.o_parent;
      name = o.o_name;
      start_us = o.o_start;
      dur_us;
      words = Float.max 0. (end_words -. o.o_words);
      args = List.rev o.o_args;
    }
    :: s.completed

let with_span ?(args = []) name f =
  let s = !st in
  if (not s.enabled) || not (Par.is_main_domain ()) then f ()
  else begin
    let id = s.next_id in
    s.next_id <- id + 1;
    let parent = match s.stack with [] -> None | o :: _ -> Some o.o_id in
    let o =
      {
        o_id = id;
        o_parent = parent;
        o_name = name;
        o_start = !clock ();
        o_words = alloc_words ();
        o_args = List.rev args;
      }
    in
    s.stack <- o :: s.stack;
    Fun.protect
      ~finally:(fun () ->
        let end_us = !clock () in
        let end_words = alloc_words () in
        (* pop back to (and through) our frame; anything above it was
           left open by an escaping exception and closes at our end time *)
        let rec pop () =
          match s.stack with
          | [] -> ()
          | top :: rest ->
              s.stack <- rest;
              close_span s top ~end_us ~end_words;
              if top.o_id <> id then pop ()
        in
        pop ())
      f
  end

let span_arg key value =
  let s = !st in
  if s.enabled && Par.is_main_domain () then
    match s.stack with
    | [] -> ()
    | o :: _ -> o.o_args <- (key, value) :: o.o_args

let now_us () = !clock ()

let record_span ?(args = []) name ~start_us ~dur_us =
  let s = !st in
  if s.enabled && Par.is_main_domain () then begin
    let id = s.next_id in
    s.next_id <- id + 1;
    let parent = match s.stack with [] -> None | o :: _ -> Some o.o_id in
    let dur_us = Float.max 0. dur_us in
    Par.Lock.with_lock metrics_lock (fun () ->
        observe_in s ("span_us:" ^ name) dur_us);
    s.completed <-
      { id; parent; name; start_us; dur_us; words = 0.; args } :: s.completed
  end

let timed name f =
  let t0 = !clock () in
  let r = with_span name f in
  (r, (!clock () -. t0) /. 1e6)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let incr ?(by = 1) name =
  if by < 0 then
    invalid_arg
      (Printf.sprintf "Telemetry.incr: negative increment %d of %s" by name);
  let s = !st in
  if s.enabled then
    Par.Lock.with_lock metrics_lock (fun () ->
        match Hashtbl.find_opt s.table name with
        | None -> Hashtbl.replace s.table name (Counter by)
        | Some (Counter v) -> Hashtbl.replace s.table name (Counter (v + by))
        | Some (Gauge _) ->
            invalid_arg ("Telemetry.incr: " ^ name ^ " is a gauge"))

let set_gauge name v =
  let s = !st in
  if s.enabled then
    Par.Lock.with_lock metrics_lock (fun () ->
        match Hashtbl.find_opt s.table name with
        | None | Some (Gauge _) -> Hashtbl.replace s.table name (Gauge v)
        | Some (Counter _) ->
            invalid_arg ("Telemetry.set_gauge: " ^ name ^ " is a counter"))

let counter_value name =
  Par.Lock.with_lock metrics_lock (fun () ->
      match Hashtbl.find_opt !st.table name with
      | Some (Counter v) -> v
      | Some (Gauge _) | None -> 0)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

let snapshot () : snapshot =
  let s = !st in
  let spans =
    List.sort
      (fun a b ->
        match compare a.start_us b.start_us with 0 -> compare a.id b.id | c -> c)
      s.completed
  in
  let metrics, hists =
    Par.Lock.with_lock metrics_lock (fun () ->
        ( Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.table []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b),
          Hashtbl.fold
            (fun k (a : hist_acc) acc ->
              ( k,
                {
                  h_count = a.ha_count;
                  h_sum = a.ha_sum;
                  h_min = a.ha_min;
                  h_max = a.ha_max;
                  h_buckets = Array.copy a.ha_buckets;
                } )
              :: acc)
            s.hist_table []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b) ))
  in
  { spans; metrics; hists }

let capture f =
  let saved = !st in
  st := fresh_state ();
  !st.enabled <- true;
  Fun.protect
    ~finally:(fun () -> st := saved)
    (fun () ->
      let r = f () in
      (r, snapshot ()))

module Snapshot = struct
  let spans_named snap name =
    List.filter (fun sp -> String.equal sp.name name) snap.spans

  let total_seconds snap name =
    List.fold_left (fun a sp -> a +. sp.dur_us) 0. (spans_named snap name)
    /. 1e6

  let find_counter snap name =
    match List.assoc_opt name snap.metrics with
    | Some (Counter v) -> Some v
    | _ -> None

  let find_gauge snap name =
    match List.assoc_opt name snap.metrics with
    | Some (Gauge v) -> Some v
    | _ -> None

  let find_hist snap name = List.assoc_opt name snap.hists

  let children snap sp =
    List.filter (fun c -> c.parent = Some sp.id) snap.spans
end

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

module Sink = struct
  let add_json_string buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  (* Chrome's trace viewer rejects NaN/inf; clamp them to 0. *)
  let add_json_float buf v =
    if Float.is_nan v || Float.abs v = Float.infinity then
      Buffer.add_char buf '0'
    else Buffer.add_string buf (Printf.sprintf "%.3f" v)

  let chrome_trace ppf (snap : snapshot) =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"traceEvents\":[";
    Buffer.add_string buf
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"gdp\"}}";
    let end_ts = ref 0. in
    List.iter
      (fun (sp : span) ->
        end_ts := Float.max !end_ts (sp.start_us +. sp.dur_us);
        Buffer.add_string buf ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":";
        add_json_string buf sp.name;
        Buffer.add_string buf ",\"cat\":\"gdp\",\"ts\":";
        add_json_float buf sp.start_us;
        Buffer.add_string buf ",\"dur\":";
        add_json_float buf sp.dur_us;
        if sp.args <> [] then begin
          Buffer.add_string buf ",\"args\":{";
          List.iteri
            (fun i (k, v) ->
              if i > 0 then Buffer.add_char buf ',';
              add_json_string buf k;
              Buffer.add_char buf ':';
              add_json_string buf v)
            sp.args;
          Buffer.add_char buf '}'
        end;
        Buffer.add_char buf '}')
      snap.spans;
    List.iter
      (fun (name, m) ->
        Buffer.add_string buf ",\n{\"ph\":\"C\",\"pid\":1,\"name\":";
        add_json_string buf name;
        Buffer.add_string buf ",\"ts\":";
        add_json_float buf !end_ts;
        Buffer.add_string buf ",\"args\":{\"value\":";
        (match m with
        | Counter v -> Buffer.add_string buf (string_of_int v)
        | Gauge v -> add_json_float buf v);
        Buffer.add_string buf "}}")
      snap.metrics;
    Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}\n";
    Format.pp_print_string ppf (Buffer.contents buf)

  let with_out_file path f =
    let oc = open_out path in
    let ppf = Format.formatter_of_out_channel oc in
    Fun.protect
      ~finally:(fun () ->
        Format.pp_print_flush ppf ();
        close_out oc)
      (fun () -> f ppf)

  let write_chrome_trace path snap =
    with_out_file path (fun ppf -> chrome_trace ppf snap);
    Log.info (fun m ->
        m "wrote Chrome trace (%d spans, %d metrics) to %s"
          (List.length snap.spans)
          (List.length snap.metrics)
          path)

  (* ---------------------------------------------------------------- *)
  (* Span tree                                                         *)

  type agg = {
    a_name : string;
    a_count : int;
    a_total : float;  (** microseconds *)
    a_words : float;
    a_children : agg list;
  }

  (** Group sibling spans by name (first-seen order) and aggregate
      recursively. *)
  let rec aggregate (snap : snapshot) (siblings : span list) : agg list =
    let order = ref [] in
    let by_name = Hashtbl.create 8 in
    List.iter
      (fun sp ->
        if not (Hashtbl.mem by_name sp.name) then begin
          Hashtbl.replace by_name sp.name [];
          order := sp.name :: !order
        end;
        Hashtbl.replace by_name sp.name (sp :: Hashtbl.find by_name sp.name))
      siblings;
    List.rev_map
      (fun name ->
        let sps = List.rev (Hashtbl.find by_name name) in
        let kids =
          List.concat_map (fun sp -> Snapshot.children snap sp) sps
        in
        {
          a_name = name;
          a_count = List.length sps;
          a_total = List.fold_left (fun a sp -> a +. sp.dur_us) 0. sps;
          a_words = List.fold_left (fun a sp -> a +. sp.words) 0. sps;
          a_children = aggregate snap kids;
        })
      (List.rev !order)
    |> List.rev

  let span_tree ppf (snap : snapshot) =
    let roots =
      List.filter (fun (sp : span) -> sp.parent = None) snap.spans
    in
    if roots = [] then Fmt.pf ppf "no spans recorded@."
    else begin
      Fmt.pf ppf "%-42s %12s %12s %8s %14s@." "span" "total (ms)" "self (ms)"
        "calls" "words";
      let rec render depth (a : agg) =
        let child_total =
          List.fold_left (fun acc c -> acc +. c.a_total) 0. a.a_children
        in
        let self = Float.max 0. (a.a_total -. child_total) in
        let label =
          Printf.sprintf "%s%s" (String.make (2 * depth) ' ') a.a_name
        in
        Fmt.pf ppf "%-42s %12.3f %12.3f %8d %14.0f@." label
          (a.a_total /. 1e3) (self /. 1e3) a.a_count a.a_words;
        List.iter (render (depth + 1)) a.a_children
      in
      List.iter (render 0) (aggregate snap roots)
    end

  let metrics_table ppf (snap : snapshot) =
    if snap.metrics <> [] then begin
      Fmt.pf ppf "%-42s %12s@." "metric" "value";
      List.iter
        (fun (name, m) ->
          match m with
          | Counter v -> Fmt.pf ppf "%-42s %12d@." name v
          | Gauge v -> Fmt.pf ppf "%-42s %12.4f@." name v)
        snap.metrics
    end

  (** One line per non-empty bucket, bar lengths proportional to the
      bucket's share of the histogram's observations. *)
  let histograms ppf (snap : snapshot) =
    if snap.hists <> [] then begin
      Fmt.pf ppf "%-42s %12s %12s %12s %12s@." "histogram" "count" "mean"
        "min" "max";
      List.iter
        (fun (name, h) ->
          let mean = if h.h_count = 0 then 0. else h.h_sum /. float h.h_count in
          Fmt.pf ppf "%-42s %12d %12.2f %12.2f %12.2f@." name h.h_count mean
            (if h.h_count = 0 then 0. else h.h_min)
            (if h.h_count = 0 then 0. else h.h_max);
          Array.iteri
            (fun i n ->
              if n > 0 then begin
                let lo, hi = hist_bucket_bounds i in
                let share = float n /. float (max 1 h.h_count) in
                let bar = String.make (int_of_float (share *. 40.)) '#' in
                if Float.is_integer hi && hi < 1e18 then
                  Fmt.pf ppf "  [%12.0f, %12.0f) %8d |%s@." lo hi n bar
                else Fmt.pf ppf "  [%12.0f,          inf) %8d |%s@." lo n bar
              end)
            h.h_buckets)
        snap.hists
    end

  let summary ppf snap =
    span_tree ppf snap;
    if snap.metrics <> [] then Fmt.pf ppf "@.";
    metrics_table ppf snap;
    if snap.hists <> [] then Fmt.pf ppf "@.";
    histograms ppf snap

  let metrics_csv ppf (snap : snapshot) =
    Fmt.pf ppf "name,kind,value@.";
    List.iter
      (fun (name, m) ->
        let quote s =
          if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
            "\""
            ^ String.concat "\"\"" (String.split_on_char '"' s)
            ^ "\""
          else s
        in
        match m with
        | Counter v -> Fmt.pf ppf "%s,counter,%d@." (quote name) v
        | Gauge v -> Fmt.pf ppf "%s,gauge,%.6f@." (quote name) v)
      snap.metrics

  let write_metrics_csv path snap =
    with_out_file path (fun ppf -> metrics_csv ppf snap);
    Log.info (fun m ->
        m "wrote %d metrics to %s" (List.length snap.metrics) path)

  let csv_quote s =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
    else s

  let histograms_csv ppf (snap : snapshot) =
    Fmt.pf ppf "name,bucket_lo,bucket_hi,count@.";
    List.iter
      (fun (name, h) ->
        Array.iteri
          (fun i n ->
            if n > 0 then begin
              let lo, hi = hist_bucket_bounds i in
              Fmt.pf ppf "%s,%.0f,%s,%d@." (csv_quote name) lo
                (if hi = infinity then "inf" else Fmt.str "%.0f" hi)
                n
            end)
          h.h_buckets)
      snap.hists

  let write_histograms_csv path snap =
    with_out_file path (fun ppf -> histograms_csv ppf snap);
    Log.info (fun m ->
        m "wrote %d histograms to %s" (List.length snap.hists) path)

  let write_summary path snap =
    with_out_file path (fun ppf -> summary ppf snap);
    Log.info (fun m ->
        m "wrote summary (%d spans, %d metrics, %d histograms) to %s"
          (List.length snap.spans)
          (List.length snap.metrics)
          (List.length snap.hists)
          path)
end

(* ------------------------------------------------------------------ *)
(* Sliding-window histograms                                           *)

module Winhist = struct
  (* Sub-octave log-scale value buckets: bucket 0 holds values below 1,
     bucket i (i >= 1) holds [2^((i-1)/R), 2^(i/R)) with R = 4
     sub-buckets per octave.  A quantile estimate returns the geometric
     midpoint of its bucket, so the bucketing error is bounded by a
     factor of 2^(1/(2R)) relative to any value in the bucket. *)
  let resolution = 4
  let octaves = 38
  let value_buckets = 1 + (resolution * octaves)
  let max_rel_error = Float.pow 2. (1. /. float_of_int (2 * resolution)) -. 1.

  let vbucket_of v =
    if not (v >= 1.) (* also catches NaN *) then 0
    else
      min (value_buckets - 1)
        (1 + int_of_float (float_of_int resolution *. Float.log2 v))

  (* Geometric midpoint of a bucket — the quantile estimate. *)
  let vbucket_mid i =
    if i = 0 then 0.5
    else Float.pow 2. ((float_of_int i -. 0.5) /. float_of_int resolution)

  type slot = {
    mutable s_epoch : int;  (** slot-width periods since the epoch; -1 = empty *)
    mutable s_count : int;
    mutable s_sum : float;
    mutable s_min : float;
    mutable s_max : float;
    s_counts : int array;
  }

  type t = {
    slot_us : float;
    n_slots : int;
    w_clock : unit -> float;
    w_slots : slot array;
    lock : Par.Lock.t;
  }

  let create ?clock ?(slot_s = 10.) ?(slots = 6) () =
    if slot_s <= 0. then invalid_arg "Winhist.create: slot_s must be positive";
    if slots < 1 then invalid_arg "Winhist.create: slots must be at least 1";
    {
      slot_us = slot_s *. 1e6;
      n_slots = slots;
      w_clock = (match clock with Some f -> f | None -> default_clock);
      w_slots =
        Array.init slots (fun _ ->
            {
              s_epoch = -1;
              s_count = 0;
              s_sum = 0.;
              s_min = infinity;
              s_max = neg_infinity;
              s_counts = Array.make value_buckets 0;
            });
      lock = Par.Lock.create ();
    }

  let window_s t = t.slot_us *. float_of_int t.n_slots /. 1e6

  let clear_slot s =
    s.s_epoch <- -1;
    s.s_count <- 0;
    s.s_sum <- 0.;
    s.s_min <- infinity;
    s.s_max <- neg_infinity;
    Array.fill s.s_counts 0 value_buckets 0

  let current_epoch t = int_of_float (t.w_clock () /. t.slot_us)

  let observe t v =
    Par.Lock.with_lock t.lock (fun () ->
        let e = current_epoch t in
        let s = t.w_slots.(e mod t.n_slots) in
        if s.s_epoch <> e then begin
          clear_slot s;
          s.s_epoch <- e
        end;
        s.s_count <- s.s_count + 1;
        s.s_sum <- s.s_sum +. v;
        s.s_min <- Float.min s.s_min v;
        s.s_max <- Float.max s.s_max v;
        let b = vbucket_of v in
        s.s_counts.(b) <- s.s_counts.(b) + 1)

  (* Fold the live (non-stale) slots under the lock. *)
  let fold_live t f init =
    Par.Lock.with_lock t.lock (fun () ->
        let e = current_epoch t in
        Array.fold_left
          (fun acc s ->
            if s.s_epoch >= 0 && s.s_epoch > e - t.n_slots then f acc s
            else acc)
          init t.w_slots)

  let count t = fold_live t (fun a s -> a + s.s_count) 0
  let sum t = fold_live t (fun a s -> a +. s.s_sum) 0.

  let min_max t =
    let mn, mx =
      fold_live t
        (fun (mn, mx) s -> (Float.min mn s.s_min, Float.max mx s.s_max))
        (infinity, neg_infinity)
    in
    if mn > mx then None else Some (mn, mx)

  (* Merged bucket counts over the window plus the total, in one locked
     pass, so a quantile never mixes two different window states. *)
  let merged t =
    let counts = Array.make value_buckets 0 in
    let total =
      fold_live t
        (fun a s ->
          Array.iteri (fun i n -> counts.(i) <- counts.(i) + n) s.s_counts;
          a + s.s_count)
        0
    in
    (counts, total)

  let quantile_of ~counts ~total q =
    if total = 0 then 0.
    else begin
      let q = Float.max 0. (Float.min 1. q) in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int total))) in
      let rec walk i seen =
        if i >= value_buckets then vbucket_mid (value_buckets - 1)
        else
          let seen = seen + counts.(i) in
          if seen >= rank then vbucket_mid i else walk (i + 1) seen
      in
      walk 0 0
    end

  let quantile t q =
    let counts, total = merged t in
    quantile_of ~counts ~total q

  let quantiles t qs =
    let counts, total = merged t in
    List.map (fun q -> quantile_of ~counts ~total q) qs

  let to_json t =
    let counts, total = merged t in
    let qv q = quantile_of ~counts ~total q in
    let s = sum t in
    let mean = if total = 0 then 0. else s /. float_of_int total in
    Minijson.obj
      [
        ("count", Minijson.int total);
        ("sum", Minijson.float s);
        ("mean", Minijson.float mean);
        ("p50", Minijson.float (qv 0.5));
        ("p95", Minijson.float (qv 0.95));
        ("p99", Minijson.float (qv 0.99));
        ("window_s", Minijson.float (window_s t));
      ]
end
