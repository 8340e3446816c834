(** Region-based Hierarchical Operation Partitioning (RHOP) extended
    with locked memory operations (paper Section 3.4; original from
    PLDI 2003).  Processes each function block by block: pre-merges
    register webs, locks memory operations to their objects' homes and
    registers to earlier-block decisions, then coarsens along low-slack
    flow edges and refines with [Est] schedule estimates. *)

open Vliw_ir

type config = {
  xmove_weight : int option;
      (** cycles charged per cross-block move; default: move latency *)
  coarsen_until : int;
  max_passes : int;
}

val default_config : config

(** Fill in the operation clusters of [assign] for the whole program.
    [lock_of] gives mandatory clusters (memory operations under a data
    partition); object homes in [assign] are the caller's business.

    Each function's blocks are partitioned in layout order; a register
    is locked to the cluster of the block that defined it last. *)
val partition :
  ?config:config ->
  machine:Vliw_machine.t ->
  objects_of:(int -> Data.Obj_set.t) ->
  lock_of:(int -> int option) ->
  Prog.t ->
  Vliw_sched.Assignment.t ->
  unit
