(** Control-flow straightening: merge a block ending in an unconditional
    jump with its sole-predecessor target. *)

open Vliw_ir

(** Merge slot [i]'s block with its jump target if the target is not
    the entry, has no other predecessor and the merged block has at most
    [max_ops] ops.  [true] when it merged. *)
val merge_at : max_ops:int -> Block_table.t -> int -> bool

(** Merge until no block can merge, first candidate in layout order. *)
val merge_all : max_ops:int -> Block_table.t -> unit

val run : ?max_ops:int -> Prog.t -> Prog.t
