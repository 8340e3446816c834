(** Execution profile gathered by the interpreter: block execution
    counts, per-operation object access counts, and heap allocation
    sizes per malloc site (paper Sections 3.2 and 4.1). *)

open Vliw_ir

type t

(** {2 Construction (used by the interpreter)} *)

(** A profile from the counts of one run: executed blocks with their
    counts, executions per op id, each memory op's accesses per object
    with the objects in first-access order (indexed by op id), and
    total bytes per malloc site. *)
val make :
  block_counts:((string * Label.t) * int) list ->
  op_counts:int array ->
  accesses:(Data.obj * int) list array ->
  heap_sizes:(int * int) list ->
  t

(** {2 Queries} *)

val block_count : t -> func:string -> label:Label.t -> int
val op_count : t -> op_id:int -> int
val accesses_of : t -> op_id:int -> (Data.obj * int) list

(** Dynamic accesses summed over all memory operations, per object,
    sorted by object. *)
val object_access_totals : t -> (Data.obj * int) list

(** Total bytes per malloc site, sorted by site. *)
val heap_sizes : t -> (int * int) list

(** Object table of a program under this profile (heap sites that never
    executed get size 0). *)
val object_table : Prog.t -> t -> Data.table

val pp : t Fmt.t
