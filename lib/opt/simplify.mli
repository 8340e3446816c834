(** Constant folding and conservative copy propagation (single,
    unguarded definitions only), iterated to a bounded fixpoint: each
    function stops after a round that changes nothing, or after 4
    rounds.
    Division/remainder by a zero literal is never folded away — it must
    still trap. *)

open Vliw_ir

val run : Prog.t -> Prog.t
