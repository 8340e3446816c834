(** Execution profile gathered by the interpreter.

    The paper's framework needs three things from profiling (Sections 3.2
    and 4.1): how often each block executes (to weigh schedule lengths),
    how much heap each malloc site allocates (object sizes), and how often
    each memory operation touches each object (for the Profile Max and
    Naive baselines). *)

open Vliw_ir

type t = {
  block_counts : (string * Label.t, int) Hashtbl.t;  (** executed blocks only *)
  op_counts : int array;  (** op id -> executions *)
  accesses : (Data.obj * int) list array;
      (** memory op id -> dynamic accesses per object *)
  heap_sizes : (int * int) list;  (** malloc site -> total bytes, by site *)
}

(* [accesses_of] has always listed a memory op's objects in the order a
   per-op [Hashtbl] built by first access folds them in, and consumers
   (Profile Max, Naive, attribution) read the list in that order.  The
   table's layout depends only on which keys were inserted in which
   order, so replaying the first-access order rebuilds it exactly. *)
let hashtbl_order objs =
  let tbl = Hashtbl.create 4 in
  List.iter (fun (o, n) -> Hashtbl.replace tbl o n) objs;
  Hashtbl.fold (fun o n acc -> (o, n) :: acc) tbl []

let make ~block_counts ~op_counts ~accesses ~heap_sizes =
  let blocks = Hashtbl.create 64 in
  List.iter (fun (k, n) -> Hashtbl.replace blocks k n) block_counts;
  {
    block_counts = blocks;
    op_counts;
    accesses =
      Array.map (function [] -> [] | objs -> hashtbl_order objs) accesses;
    heap_sizes = List.sort (fun (a, _) (b, _) -> Int.compare a b) heap_sizes;
  }

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

let block_count t ~func ~label =
  Option.value ~default:0 (Hashtbl.find_opt t.block_counts (func, label))

(* Callers also ask about ops the profiled program does not have, such
   as the moves of a clustered copy: those never executed here. *)
let in_range t op_id = op_id >= 0 && op_id < Array.length t.op_counts
let op_count t ~op_id = if in_range t op_id then t.op_counts.(op_id) else 0

(** Dynamic accesses of [op_id] broken down by object. *)
let accesses_of t ~op_id : (Data.obj * int) list =
  if in_range t op_id then t.accesses.(op_id) else []

(** Dynamic accesses summed over all memory operations, per object —
    the ground truth the attribution layer's local/remote split must
    add back up to. *)
let object_access_totals t : (Data.obj * int) list =
  let totals = Hashtbl.create 16 in
  Array.iter
    (List.iter (fun (o, n) ->
         Hashtbl.replace totals o
           (n + Option.value ~default:0 (Hashtbl.find_opt totals o))))
    t.accesses;
  Hashtbl.fold (fun o n acc -> (o, n) :: acc) totals []
  |> List.sort (fun (a, _) (b, _) -> Data.compare_obj a b)

(** Total bytes allocated per malloc site, as an assoc list sorted by
    site id (the object-table input). *)
let heap_sizes t = t.heap_sizes

(** Object sizes table for a program under this profile.  Heap sites that
    never executed get size 0 so they still appear as objects. *)
let object_table prog t =
  let profiled = heap_sizes t in
  let all_sites = Prog.alloc_sites prog in
  let sizes =
    List.map
      (fun s -> (s, Option.value ~default:0 (List.assoc_opt s profiled)))
      all_sites
  in
  Data.table_of ~globals:(Prog.globals prog) ~heap_sizes:sizes

let pp ppf t =
  Fmt.pf ppf "@[<v>profile:@,";
  let blocks =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.block_counts []
    |> List.sort compare
  in
  List.iter
    (fun ((f, l), n) -> Fmt.pf ppf "  %s/%a: %d@," f Label.pp l n)
    blocks;
  Fmt.pf ppf "@]"
