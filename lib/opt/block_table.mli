(** A function's blocks in layout order, edited in place, with
    predecessor lists kept current.  Slots never move: a rewrite keeps
    its block's slot and deletion empties one, so slot order is layout
    order.  [Straighten] walks it slot by slot; [Ifconvert] revisits
    slots through a [Worklist]. *)

open Vliw_ir

type t

val of_func : Func.t -> t

(** The function's blocks, live slots in layout order. *)
val to_func : Func.t -> t -> Func.t

(** Number of slots, deleted ones included. *)
val length : t -> int

(** [None] once deleted. *)
val block : t -> int -> Block.t option

(** Raises [Invalid_argument] on labels with no live block. *)
val find : t -> Label.t -> int

(** Slots whose terminator targets slot [i], once per edge. *)
val preds : t -> int -> int list

(** Incoming edges: a conditional branch with both targets on one
    block counts twice. *)
val pred_count : t -> int -> int

(** Label of the first live block. *)
val entry_label : t -> Label.t

(** Replace the block in a slot (same label). *)
val set : t -> int -> Block.t -> unit

val delete : t -> int -> unit

(** Slots waiting to be looked at, always taken lowest first. *)
module Worklist : sig
  type t

  (** Every slot of an [n]-slot table pending. *)
  val full : int -> t

  val add : t -> int -> unit

  (** Remove and return the lowest pending slot. *)
  val pop : t -> int option
end
