(* In-memory span recorder for the traced run.

   A span is one call into a layer's public function, timed from the
   benchmark.  Spans carry the id of the operation (compile or job) they
   belong to and the id of the span that caused them, plus the words the
   call allocated.  Nothing is recorded unless a run is traced; the
   spans are written out once, when the run ends. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  op : int;  (** every span of one operation shares this id *)
  name : string;
  start : float;
  stop : float;
  words : float;  (** words allocated during the call *)
}

let now = Unix.gettimeofday

(* Words allocated by this domain so far.  [Gc.minor_words] reads the
   live minor-heap pointer, so it is exact at any point; direct major
   allocations (large arrays) are only folded into the counters at GC
   slices, so they are counted through [Gc.counters] and can shift
   between neighbouring spans. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let recorded : span list ref = ref []
let next_id = ref 0

let with_span ~op ~parent name f =
  incr next_id;
  let id = !next_id in
  let w0 = alloc_words () in
  let t0 = now () in
  let finish () =
    let t1 = now () in
    let w1 = alloc_words () in
    recorded :=
      { id; parent; op; name; start = t0; stop = t1; words = w1 -. w0 }
      :: !recorded
  in
  match f id with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let spans () = List.rev !recorded

let to_json (s : span) =
  Minijson.obj
    [
      ("id", Minijson.int s.id);
      ("parent", Minijson.int s.parent);
      ("op", Minijson.int s.op);
      ("name", Minijson.str s.name);
      ("start", Minijson.float s.start);
      ("stop", Minijson.float s.stop);
      ("words", Minijson.float s.words);
    ]

(* One JSON object per line. *)
let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc (Minijson.encode (to_json s));
          output_char oc '\n')
        (spans ()))

(* Per-name totals over the spans of the operations [keep] selects:
   (busy seconds, allocated words). *)
let totals ?(keep = fun _ -> true) () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      if keep s.op then begin
        let t, w =
          Option.value ~default:(0., 0.) (Hashtbl.find_opt tbl s.name)
        in
        Hashtbl.replace tbl s.name (t +. (s.stop -. s.start), w +. s.words)
      end)
    !recorded;
  tbl

(* Time inside root spans that no child span covers.  Children of one
   root run one after another, so their durations add up without
   overlap. *)
let uncovered () =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)
          +. (s.stop -. s.start)))
    !recorded;
  List.fold_left
    (fun (root_total, gap) s ->
      if s.parent = 0 then
        let d = s.stop -. s.start in
        let c = Option.value ~default:0. (Hashtbl.find_opt child_time s.id) in
        (root_total +. d, gap +. Float.max 0. (d -. c))
      else (root_total, gap))
    (0., 0.) !recorded
