(** Telemetry subsystem tests: span nesting/ordering invariants,
    disabled-mode no-op behavior, counter monotonicity, and a property
    test that the Chrome trace-event exporter always emits parseable
    JSON whose events are complete (ph "X") — plus an integration check
    that the instrumented pipeline records every stage span. *)

(* ------------------------------------------------------------------ *)
(* A minimal JSON parser — the repo deliberately has no JSON dependency,
   so the exporter is validated against this independent reader.       *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      String.iter expect word;
      v
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | None -> fail "unterminated escape"
            | Some c ->
                advance ();
                (match c with
                | '"' -> Buffer.add_char buf '"'
                | '\\' -> Buffer.add_char buf '\\'
                | '/' -> Buffer.add_char buf '/'
                | 'b' -> Buffer.add_char buf '\b'
                | 'f' -> Buffer.add_char buf '\012'
                | 'n' -> Buffer.add_char buf '\n'
                | 'r' -> Buffer.add_char buf '\r'
                | 't' -> Buffer.add_char buf '\t'
                | 'u' ->
                    if !pos + 4 > n then fail "truncated \\u escape";
                    let hex = String.sub s !pos 4 in
                    pos := !pos + 4;
                    let code =
                      try int_of_string ("0x" ^ hex)
                      with Failure _ -> fail "bad \\u escape"
                    in
                    if code < 0x100 then Buffer.add_char buf (Char.chr code)
                    else Buffer.add_char buf '?'
                | _ -> fail "unknown escape");
                go ())
        | Some c ->
            if Char.code c < 0x20 then fail "raw control char in string";
            advance ();
            Buffer.add_char buf c;
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let numchar = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> numchar c | None -> false) do
        advance ()
      done;
      if !pos = start then fail "expected number";
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "malformed number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then (
            advance ();
            Obj [])
          else
            let rec members acc =
              skip_ws ();
              let key = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((key, v) :: acc)
              | Some '}' ->
                  advance ();
                  Obj (List.rev ((key, v) :: acc))
              | _ -> fail "expected , or }"
            in
            members []
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then (
            advance ();
            Arr [])
          else
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  Arr (List.rev (v :: acc))
              | _ -> fail "expected , or ]"
            in
            elements []
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

(** Deterministic clock: every reading advances by 1us. *)
let with_fake_clock f =
  let t = ref 0. in
  Telemetry.set_clock
    (Some
       (fun () ->
         t := !t +. 1.;
         !t));
  Fun.protect ~finally:(fun () -> Telemetry.set_clock None) f

let render_chrome snap =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Telemetry.Sink.chrome_trace ppf snap;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let span_names (snap : Telemetry.snapshot) =
  List.map (fun (sp : Telemetry.span) -> sp.Telemetry.name) snap.Telemetry.spans

(* ------------------------------------------------------------------ *)
(* Span invariants                                                     *)

let test_nesting_and_ordering () =
  with_fake_clock @@ fun () ->
  let (), snap =
    Telemetry.capture (fun () ->
        Telemetry.with_span "a" (fun () ->
            Telemetry.with_span "b" (fun () -> ());
            Telemetry.with_span "c" (fun () -> ())))
  in
  match snap.Telemetry.spans with
  | [ a; b; c ] ->
      Alcotest.(check (list string)) "start order" [ "a"; "b"; "c" ]
        (span_names snap);
      Alcotest.(check bool) "a is a root" true (a.Telemetry.parent = None);
      Alcotest.(check bool) "b under a" true
        (b.Telemetry.parent = Some a.Telemetry.id);
      Alcotest.(check bool) "c under a" true
        (c.Telemetry.parent = Some a.Telemetry.id);
      let ends (sp : Telemetry.span) =
        sp.Telemetry.start_us +. sp.Telemetry.dur_us
      in
      Alcotest.(check bool) "b contained in a" true
        (a.Telemetry.start_us < b.Telemetry.start_us && ends b < ends a);
      Alcotest.(check bool) "c contained in a" true
        (a.Telemetry.start_us < c.Telemetry.start_us && ends c < ends a);
      Alcotest.(check bool) "siblings do not overlap" true
        (ends b < c.Telemetry.start_us);
      Alcotest.(check bool) "children listed under a" true
        (List.map
           (fun (sp : Telemetry.span) -> sp.Telemetry.name)
           (Telemetry.Snapshot.children snap a)
        = [ "b"; "c" ])
  | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans)

let test_span_closes_on_exception () =
  let (), snap =
    Telemetry.capture (fun () ->
        try
          Telemetry.with_span "outer" (fun () ->
              Telemetry.with_span "inner" (fun () -> failwith "boom"))
        with Failure _ -> ())
  in
  Alcotest.(check (list string))
    "both spans recorded" [ "outer"; "inner" ] (span_names snap);
  match snap.Telemetry.spans with
  | [ outer; inner ] ->
      Alcotest.(check bool) "inner still nested" true
        (inner.Telemetry.parent = Some outer.Telemetry.id)
  | _ -> Alcotest.fail "expected 2 spans"

let test_timed_agrees_with_span () =
  with_fake_clock @@ fun () ->
  let (secs, snap) =
    Telemetry.capture (fun () -> snd (Telemetry.timed "work" (fun () -> ())))
  in
  Alcotest.(check bool) "span recorded" true
    (Telemetry.Snapshot.spans_named snap "work" <> []);
  (* the timed window encloses the span: 4 clock readings total *)
  Alcotest.(check (float 1e-9)) "elapsed from the same clock" 3e-6 secs

(* ------------------------------------------------------------------ *)
(* Disabled mode                                                       *)

let test_disabled_is_noop () =
  Telemetry.disable ();
  Telemetry.reset ();
  let ran = ref false in
  let r = Telemetry.with_span "ghost" (fun () -> ran := true; 41 + 1) in
  Telemetry.incr "ghost.counter";
  Telemetry.set_gauge "ghost.gauge" 1.0;
  Telemetry.span_arg "k" "v";
  Alcotest.(check bool) "body ran" true !ran;
  Alcotest.(check int) "result passed through" 42 r;
  let snap = Telemetry.snapshot () in
  Alcotest.(check int) "no spans" 0 (List.length snap.Telemetry.spans);
  Alcotest.(check int) "no metrics" 0 (List.length snap.Telemetry.metrics);
  Alcotest.(check int) "counter reads 0" 0
    (Telemetry.counter_value "ghost.counter")

(* Enabled spans carry the words allocated inside them (children
   included) and the summary prints them per span name; a disabled run
   records no span and so no words. *)
let test_span_words () =
  let alloc n = ignore (Sys.opaque_identity (List.init n Fun.id)) in
  let (), snap =
    Telemetry.capture (fun () ->
        Telemetry.with_span "outer" (fun () ->
            alloc 1000;
            Telemetry.with_span "inner" (fun () -> alloc 10_000)))
  in
  let words name =
    match Telemetry.Snapshot.spans_named snap name with
    | [ sp ] -> sp.Telemetry.words
    | _ -> Alcotest.failf "expected one %s span" name
  in
  (* a list cell is three words *)
  Alcotest.(check bool) "inner counts its list" true (words "inner" >= 30_000.);
  Alcotest.(check bool) "outer includes inner" true
    (words "outer" >= words "inner" +. 3_000.);
  let summary = Fmt.str "%a" Telemetry.Sink.summary snap in
  let row =
    List.find
      (fun l -> String.length l > 7 && String.sub l 0 7 = "  inner")
      (String.split_on_char '\n' summary)
  in
  Alcotest.(check bool) "summary row ends with the words" true
    (String.ends_with ~suffix:(Printf.sprintf " %.0f" (words "inner")) row);
  Telemetry.disable ();
  Telemetry.reset ();
  Telemetry.with_span "ghost" (fun () -> alloc 10_000);
  Alcotest.(check int) "disabled: nothing recorded" 0
    (List.length (Telemetry.snapshot ()).Telemetry.spans)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_counter_monotonicity () =
  let (), snap =
    Telemetry.capture (fun () ->
        Telemetry.incr "c";
        Telemetry.incr "c" ~by:4;
        Telemetry.incr "c" ~by:0;
        Alcotest.(check int) "accumulates" 5 (Telemetry.counter_value "c");
        (match Telemetry.incr "c" ~by:(-1) with
        | () -> Alcotest.fail "negative increment accepted"
        | exception Invalid_argument _ -> ());
        Alcotest.(check int) "unchanged after rejected decrement" 5
          (Telemetry.counter_value "c");
        Telemetry.set_gauge "g" 2.5;
        Telemetry.set_gauge "g" 1.5;
        (match Telemetry.set_gauge "c" 0. with
        | () -> Alcotest.fail "gauge write to a counter accepted"
        | exception Invalid_argument _ -> ());
        match Telemetry.incr "g" with
        | () -> Alcotest.fail "counter increment of a gauge accepted"
        | exception Invalid_argument _ -> ())
  in
  Alcotest.(check (option int)) "counter in snapshot" (Some 5)
    (Telemetry.Snapshot.find_counter snap "c");
  Alcotest.(check (option (float 1e-9))) "gauge last-write-wins" (Some 1.5)
    (Telemetry.Snapshot.find_gauge snap "g")

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)

let test_histogram_buckets () =
  let (), snap =
    Telemetry.capture (fun () ->
        List.iter (Telemetry.observe "lat") [ 0.5; 1.0; 3.0; 1000.0 ])
  in
  match Telemetry.Snapshot.find_hist snap "lat" with
  | None -> Alcotest.fail "histogram not in snapshot"
  | Some h ->
      Alcotest.(check int) "count" 4 h.Telemetry.h_count;
      Alcotest.(check (float 1e-9)) "sum" 1004.5 h.Telemetry.h_sum;
      Alcotest.(check (float 1e-9)) "min" 0.5 h.Telemetry.h_min;
      Alcotest.(check (float 1e-9)) "max" 1000.0 h.Telemetry.h_max;
      Alcotest.(check int) "bucket total equals count" h.Telemetry.h_count
        (Array.fold_left ( + ) 0 h.Telemetry.h_buckets);
      (* every observation landed in the bucket whose bounds contain it *)
      List.iter
        (fun v ->
          let hit = ref false in
          Array.iteri
            (fun i n ->
              let lo, hi = Telemetry.hist_bucket_bounds i in
              if n > 0 && v >= lo && v < hi then hit := true)
            h.Telemetry.h_buckets;
          Alcotest.(check bool)
            (Printf.sprintf "%.1f in a covering bucket" v)
            true !hit)
        [ 0.5; 1.0; 3.0; 1000.0 ]

let test_histogram_bounds_partition () =
  (* buckets tile [0, inf): contiguous, increasing, first starts at 0 *)
  let prev_hi = ref 0. in
  for i = 0 to Telemetry.hist_buckets - 1 do
    let lo, hi = Telemetry.hist_bucket_bounds i in
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "bucket %d contiguous" i)
      !prev_hi lo;
    Alcotest.(check bool) "bounds ordered" true (lo < hi);
    prev_hi := hi
  done;
  Alcotest.(check bool) "last bucket open-ended" true
    (snd (Telemetry.hist_bucket_bounds (Telemetry.hist_buckets - 1))
    = infinity)

let test_observe_disabled_is_noop () =
  Telemetry.disable ();
  Telemetry.reset ();
  Telemetry.observe "ghost.hist" 5.0;
  let snap = Telemetry.snapshot () in
  Alcotest.(check int) "no histograms" 0 (List.length snap.Telemetry.hists)

let test_span_durations_observed () =
  with_fake_clock @@ fun () ->
  let (), snap =
    Telemetry.capture (fun () ->
        Telemetry.with_span "work" (fun () -> ());
        Telemetry.with_span "work" (fun () -> ()))
  in
  match Telemetry.Snapshot.find_hist snap "span_us:work" with
  | None -> Alcotest.fail "span duration histogram missing"
  | Some h -> Alcotest.(check int) "one observation per span" 2 h.Telemetry.h_count

let test_histograms_csv_and_summary_file () =
  let (), snap =
    Telemetry.capture (fun () ->
        Telemetry.observe "prep.us" 2.0;
        Telemetry.observe "prep.us" 2.5;
        Telemetry.incr "boot.count")
  in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Telemetry.Sink.histograms_csv ppf snap;
  Format.pp_print_flush ppf ();
  let lines =
    String.split_on_char '\n' (String.trim (Buffer.contents buf))
  in
  (match lines with
  | header :: rows ->
      Alcotest.(check string)
        "csv header" "name,bucket_lo,bucket_hi,count" header;
      Alcotest.(check bool) "one non-empty bucket row" true
        (List.exists
           (fun r ->
             String.length r >= 8 && String.sub r 0 8 = "prep.us,")
           rows)
  | [] -> Alcotest.fail "empty csv");
  let path = Filename.temp_file "gdp_stats" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Telemetry.Sink.write_summary path snap;
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let contains needle =
        let nl = String.length needle and tl = String.length text in
        let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "summary lists the counter" true
        (contains "boot.count");
      Alcotest.(check bool) "summary lists the histogram" true
        (contains "prep.us"))

(* ------------------------------------------------------------------ *)
(* Chrome trace exporter property                                      *)

(** Random span forests of bounded size. *)
type tree = Node of string * tree list

let tree_gen =
  QCheck.Gen.(
    let name_gen =
      oneof
        [
          string_size ~gen:printable (int_range 0 12);
          string_size ~gen:char (int_range 0 8);
        ]
    in
    sized
    @@ fix (fun self size ->
           map2
             (fun name children -> Node (name, children))
             name_gen
             (if size <= 0 then return []
              else list_size (int_range 0 3) (self (size / 4)))))

let forest_arb =
  QCheck.make
    ~print:(fun forest ->
      let rec pp (Node (name, children)) =
        Printf.sprintf "%S[%s]" name (String.concat ";" (List.map pp children))
      in
      String.concat ";" (List.map pp forest))
    QCheck.Gen.(list_size (int_range 0 4) tree_gen)

let rec replay (Node (name, children)) =
  Telemetry.with_span name (fun () -> List.iter replay children)

let rec count_nodes (Node (_, children)) =
  1 + List.fold_left (fun a t -> a + count_nodes t) 0 children

let chrome_trace_parses =
  QCheck.Test.make ~name:"chrome trace is parseable JSON, all events complete"
    ~count:100 forest_arb (fun forest ->
      let (), snap =
        with_fake_clock (fun () ->
            Telemetry.capture (fun () ->
                List.iter replay forest;
                Telemetry.incr "events.total"
                  ~by:(List.fold_left (fun a t -> a + count_nodes t) 0 forest);
                Telemetry.set_gauge "a \"quoted\"\ngauge" 1.25))
      in
      let json = Json.parse (render_chrome snap) in
      let events =
        match Json.member "traceEvents" json with
        | Some (Json.Arr evs) -> evs
        | _ -> QCheck.Test.fail_report "no traceEvents array"
      in
      let expected_spans =
        List.fold_left (fun a t -> a + count_nodes t) 0 forest
      in
      let phase e =
        match Json.member "ph" e with
        | Some (Json.Str p) -> p
        | _ -> QCheck.Test.fail_report "event without ph"
      in
      let xs = List.filter (fun e -> phase e = "X") events in
      let begins = List.filter (fun e -> phase e = "B") events in
      let ends = List.filter (fun e -> phase e = "E") events in
      (* every duration event is complete ("X"), or — if an exporter ever
         switches to B/E pairs — they must match up *)
      if List.length begins <> List.length ends then
        QCheck.Test.fail_report "unmatched B/E events";
      if List.length xs + List.length begins <> expected_spans then
        QCheck.Test.fail_reportf "expected %d duration events, got %d"
          expected_spans
          (List.length xs + List.length begins);
      List.for_all
        (fun e ->
          match
            (Json.member "name" e, Json.member "ts" e, Json.member "dur" e)
          with
          | Some (Json.Str _), Some (Json.Num ts), Some (Json.Num dur) ->
              ts >= 0. && dur >= 0.
          | _ -> QCheck.Test.fail_report "X event missing name/ts/dur")
        xs)

let chrome_trace_roundtrips_names =
  QCheck.Test.make ~name:"chrome trace preserves span names exactly"
    ~count:100 forest_arb (fun forest ->
      let (), snap =
        with_fake_clock (fun () ->
            Telemetry.capture (fun () -> List.iter replay forest))
      in
      let json = Json.parse (render_chrome snap) in
      let events =
        match Json.member "traceEvents" json with
        | Some (Json.Arr evs) -> evs
        | _ -> QCheck.Test.fail_report "no traceEvents array"
      in
      let exported =
        List.filter_map
          (fun e ->
            match (Json.member "ph" e, Json.member "name" e) with
            | Some (Json.Str "X"), Some (Json.Str n) -> Some n
            | _ -> None)
          events
        |> List.sort compare
      in
      let recorded = List.sort compare (span_names snap) in
      exported = recorded)

(* ------------------------------------------------------------------ *)
(* Pipeline integration: every stage leaves a span                     *)

let test_pipeline_records_stage_spans () =
  let b = Benchsuite.Suite.find "fsed" in
  let (), snap =
    Telemetry.capture (fun () ->
        let p = Gdp_core.Pipeline.prepare b in
        let ctx = Gdp_core.Pipeline.context p in
        let e = Gdp_core.Pipeline.evaluate ctx Partition.Methods.Gdp in
        match Gdp_core.Pipeline.verify p ctx e with
        | Ok () -> ()
        | Error m -> Alcotest.fail m)
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " span recorded") true
        (Telemetry.Snapshot.spans_named snap name <> []))
    [
      "prepare";
      "parse";
      "optimize";
      "profile";
      "context";
      "access-merge";
      "evaluate";
      "graph-partition";
      "coarsen-level";
      "initial-partition";
      "rhop";
      "rhop-region";
      "move-insert";
      "schedule";
      "schedule-block";
      "verify";
      "simulate";
    ];
  Alcotest.(check bool) "rhop iterated" true
    (match Telemetry.Snapshot.find_counter snap "rhop.iterations" with
    | Some n -> n > 0
    | None -> false);
  let counter name =
    Option.value ~default:0 (Telemetry.Snapshot.find_counter snap name)
  in
  let calls = counter "rhop.est_calls" and pruned = counter "rhop.est_pruned" in
  Alcotest.(check bool) "rhop pruned some candidates" true (0 < pruned);
  Alcotest.(check bool) "rhop pruned no more than it tried" true
    (pruned <= calls);
  Alcotest.(check bool) "rhop relaxed dependence levels" true
    (counter "rhop.dep_nodes" > 0);
  Alcotest.(check bool) "partition quality gauges present" true
    (Telemetry.Snapshot.find_gauge snap "gdp.cut_edges" <> None
    && Telemetry.Snapshot.find_gauge snap "sched.total_cycles" <> None);
  (* the trace of a real pipeline run is valid JSON too *)
  match Json.parse (render_chrome snap) with
  | Json.Obj _ -> ()
  | _ -> Alcotest.fail "pipeline trace did not parse as a JSON object"

(* ------------------------------------------------------------------ *)
(* Winhist: sliding-window histograms                                  *)

module Winhist = Telemetry.Winhist

(* Exact quantile with Winhist's rank convention: rank = max 1 (ceil
   (q*n)) over the sorted sample. *)
let exact_quantile values q =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  a.(min (n - 1) (rank - 1))

(* The documented bound, plus a little float slack. *)
let tolerance = Winhist.max_rel_error +. 1e-9

let check_quantile name h values q =
  let est = Winhist.quantile h q in
  let exact = exact_quantile values q in
  let rel = Float.abs (est -. exact) /. Float.max 1. exact in
  if rel > tolerance then
    Alcotest.failf "%s: q=%.2f estimate %.2f vs exact %.2f (rel %.4f > %.4f)"
      name q est exact rel tolerance

let fake_clock () =
  let now = ref 0. in
  ((fun () -> !now), fun s -> now := s *. 1e6)

let test_winhist_quantiles_within_bound () =
  let clock, _set = fake_clock () in
  (* uniform, geometric and constant shapes, all in one live window *)
  let shapes =
    [
      ("uniform", List.init 1000 (fun i -> float_of_int (i + 1)));
      ("geometric", List.init 200 (fun i -> 1.5 ** float_of_int (i mod 40)));
      ("constant", List.init 50 (fun _ -> 1234.5));
    ]
  in
  List.iter
    (fun (name, values) ->
      let h = Winhist.create ~clock ~slot_s:10. ~slots:6 () in
      List.iter (Winhist.observe h) values;
      Alcotest.(check int) (name ^ " count") (List.length values) (Winhist.count h);
      List.iter
        (fun q -> check_quantile name h values q)
        [ 0.01; 0.25; 0.5; 0.75; 0.95; 0.99; 1.0 ];
      (* quantiles (plural) agrees with quantile one at a time *)
      match Winhist.quantiles h [ 0.5; 0.95; 0.99 ] with
      | [ a; b; c ] ->
          Alcotest.(check (float 1e-9)) "p50 agree" (Winhist.quantile h 0.5) a;
          Alcotest.(check (float 1e-9)) "p95 agree" (Winhist.quantile h 0.95) b;
          Alcotest.(check (float 1e-9)) "p99 agree" (Winhist.quantile h 0.99) c
      | _ -> Alcotest.fail "quantiles arity")
    shapes

let test_winhist_empty_and_single () =
  let clock, _set = fake_clock () in
  let h = Winhist.create ~clock () in
  Alcotest.(check int) "empty count" 0 (Winhist.count h);
  Alcotest.(check (float 0.)) "empty sum" 0. (Winhist.sum h);
  Alcotest.(check (float 0.)) "empty quantile" 0. (Winhist.quantile h 0.5);
  Alcotest.(check bool) "empty min/max" true (Winhist.min_max h = None);
  Winhist.observe h 42.;
  Alcotest.(check int) "single count" 1 (Winhist.count h);
  let est = Winhist.quantile h 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "single p50 %.2f within bound of 42" est)
    true
    (Float.abs (est -. 42.) /. 42. <= tolerance);
  (* every quantile of a single observation is that observation *)
  Alcotest.(check (float 1e-9)) "single p99 = p1" (Winhist.quantile h 0.01) (Winhist.quantile h 0.99);
  Alcotest.(check bool) "single min/max" true (Winhist.min_max h = Some (42., 42.));
  (* sub-1 values share the underflow bucket and estimate as 0.5 *)
  let u = Winhist.create ~clock () in
  Winhist.observe u 0.25;
  Alcotest.(check (float 1e-9)) "underflow estimate" 0.5 (Winhist.quantile u 0.5)

let test_winhist_rotation () =
  let clock, set = fake_clock () in
  let h = Winhist.create ~clock ~slot_s:10. ~slots:6 () in
  set 0.;
  Winhist.observe h 100.;
  set 30.;
  Winhist.observe h 200.;
  Alcotest.(check int) "both slots live at 30 s" 2 (Winhist.count h);
  (* 59.9 s: the t=0 slot (epoch 0) is still inside the 60 s window *)
  set 59.9;
  Alcotest.(check int) "still live just before expiry" 2 (Winhist.count h);
  (* 60 s: epoch 0 ages out, the t=30 observation survives *)
  set 60.;
  Alcotest.(check int) "first slot expired at 60 s" 1 (Winhist.count h);
  Alcotest.(check bool) "survivor is the 200" true
    (Winhist.min_max h = Some (200., 200.));
  (* 90 s: everything gone *)
  set 90.;
  Alcotest.(check int) "window drained" 0 (Winhist.count h);
  (* a new observation reuses the stale ring slot without resurrecting
     its old contents *)
  set 120.;
  Winhist.observe h 300.;
  Alcotest.(check int) "fresh slot after reuse" 1 (Winhist.count h);
  Alcotest.(check bool) "fresh contents only" true
    (Winhist.min_max h = Some (300., 300.))

let test_winhist_single_slot () =
  let clock, set = fake_clock () in
  let h = Winhist.create ~clock ~slot_s:10. ~slots:1 () in
  Alcotest.(check (float 1e-9)) "window is one slot" 10. (Winhist.window_s h);
  set 0.;
  Winhist.observe h 5.;
  Winhist.observe h 7.;
  Alcotest.(check int) "one slot holds the epoch" 2 (Winhist.count h);
  set 9.9;
  Alcotest.(check int) "same epoch still live" 2 (Winhist.count h);
  set 10.;
  Alcotest.(check int) "next epoch empties a 1-slot window" 0 (Winhist.count h);
  Winhist.observe h 9.;
  Alcotest.(check int) "new epoch records" 1 (Winhist.count h);
  (* bad configurations are rejected *)
  (match Winhist.create ~slot_s:0. () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted slot_s = 0");
  match Winhist.create ~slots:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted slots = 0"

let test_winhist_to_json () =
  let clock, _set = fake_clock () in
  let h = Winhist.create ~clock ~slot_s:10. ~slots:6 () in
  List.iter (Winhist.observe h) [ 10.; 20.; 30.; 40. ];
  match Winhist.to_json h with
  | Minijson.Obj fields ->
      List.iter
        (fun k ->
          if not (List.mem_assoc k fields) then
            Alcotest.failf "to_json missing %s" k)
        [ "count"; "sum"; "mean"; "p50"; "p95"; "p99"; "window_s" ];
      Alcotest.(check bool) "count is 4" true
        (List.assoc "count" fields = Minijson.Num 4.);
      Alcotest.(check bool) "sum is 100" true
        (List.assoc "sum" fields = Minijson.Num 100.)
  | _ -> Alcotest.fail "to_json did not yield an object"

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "span nesting and ordering" `Quick
      test_nesting_and_ordering;
    Alcotest.test_case "spans close on exception" `Quick
      test_span_closes_on_exception;
    Alcotest.test_case "timed uses the telemetry clock" `Quick
      test_timed_agrees_with_span;
    Alcotest.test_case "disabled mode is a no-op" `Quick
      test_disabled_is_noop;
    Alcotest.test_case "spans record allocated words" `Quick test_span_words;
    Alcotest.test_case "counter monotonicity and gauge kinds" `Quick
      test_counter_monotonicity;
    Alcotest.test_case "histogram bucketing" `Quick test_histogram_buckets;
    Alcotest.test_case "histogram bounds tile [0, inf)" `Quick
      test_histogram_bounds_partition;
    Alcotest.test_case "observe is a no-op when disabled" `Quick
      test_observe_disabled_is_noop;
    Alcotest.test_case "span durations feed a histogram" `Quick
      test_span_durations_observed;
    Alcotest.test_case "histogram CSV and summary file" `Quick
      test_histograms_csv_and_summary_file;
    QCheck_alcotest.to_alcotest chrome_trace_parses;
    QCheck_alcotest.to_alcotest chrome_trace_roundtrips_names;
    Alcotest.test_case "pipeline records every stage span" `Quick
      test_pipeline_records_stage_spans;
    Alcotest.test_case "winhist quantiles within documented bound" `Quick
      test_winhist_quantiles_within_bound;
    Alcotest.test_case "winhist empty window and single value" `Quick
      test_winhist_empty_and_single;
    Alcotest.test_case "winhist rotation expires old slots" `Quick
      test_winhist_rotation;
    Alcotest.test_case "winhist single-slot window" `Quick
      test_winhist_single_slot;
    Alcotest.test_case "winhist to_json shape" `Quick test_winhist_to_json;
  ]
