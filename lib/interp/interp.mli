(** Reference interpreter for the VLIW IR: functional semantics (the
    oracle for semantic-preservation tests), the profiler of the
    paper's framework, and a dynamic checker (every access must fall
    inside a live data object).

    Memory is flat and byte-addressed with 8-byte words; globals are
    laid out from a fixed base with guard gaps; the heap bump-allocates.
    Guarded (predicated) operations are nullified when their guard
    fails. *)

open Vliw_ir

exception Runtime_error of string

type value = VInt of int | VFloat of float

val pp_value : value Fmt.t

(** Exact equality (floats compared bit-for-bit: both sides of a
    comparison run the same operations in the same order). *)
val equal_value : value -> value -> bool

val to_int : value -> int
val to_float : value -> float

(** {2 Evaluation primitives} (shared with the cycle-level simulator) *)

val eval_ibin : Op.ibinop -> value -> value -> value
val eval_fbin : Op.fbinop -> value -> value -> value
val eval_un : Op.unop -> value -> value

(** {2 Machine model} (shared with the cycle-level simulator) *)

(** [grow a n fill] is [a] if index [n] is in bounds, else a copy at
    least twice as long, padded with [fill]. *)
val grow : 'a array -> int -> 'a -> 'a array

(** The flat data memory: one range per global and per executed
    allocation, laid out from fixed bases with 64-byte guard gaps, so
    an address belongs to at most one live object (globals that reach
    past the heap base overlap the heap, and there the heap object
    holds the address).  Cells are stored in pages created on first
    write: an allocation costs only the memory the program touches.
    Data objects are interned to dense indices (the globals first, in
    declaration order; heap sites as first seen). *)
module Memory : sig
  type t

  (** Lay out the program's globals with their initial contents. *)
  val create : Prog.t -> t

  (** Raises [Not_found] on unknown names. *)
  val global_addr : t -> string -> int

  (** Allocate [bytes] (rounded up to whole words) for malloc [site];
      returns the base address.  Raises [Runtime_error] when [bytes] is
      negative. *)
  val alloc : t -> site:int -> int -> int

  (** The range holding [addr], or [-1] for a wild address. *)
  val find : t -> int -> int

  (** The word at [addr]; zero if never written.  A misaligned address
      is a cell of its own, as in a map from byte addresses to words. *)
  val get : t -> int -> value

  val set : t -> int -> value -> unit

  (** Object index of a range. *)
  val owner : t -> int -> int

  val intern : t -> Data.obj -> int
  val obj : t -> int -> Data.obj
  val num_objs : t -> int
end

(** Operations decoded for execution: registers are array indices,
    immediates are boxed values, branch targets are block indices in
    [Func.blocks] order and callees are indices into the program's
    function list. *)
module Code : sig
  type src = R of int | K of value

  type kind =
    | Ibin of Op.ibinop * int * src * src
    | Fbin of Op.fbinop * int * src * src
    | Un of Op.unop * int * src
    | Load of int * src * src  (** dst, base, offset *)
    | Store of src * src * src  (** src, base, offset *)
    | Addr of int * value  (** dst, the global's address *)
    | Alloc of int * src * int  (** dst, size, site *)
    | Call of int * int * src list  (** dst ([-1] for none), callee *)
    | In of int * src
    | Out of src
    | Move of int * int
    | Jmp of int
    | Cbr of src * int * int
    | Ret of src option

  (** [guard] is the guard register, [-1] for unguarded ops; the op
      executes when the register's truth equals [gsense]. *)
  type instr = { id : int; guard : int; gsense : bool; kind : kind }

  (** The program's functions, indexed in [Prog.funcs] order. *)
  type funcs

  val index_funcs : Prog.t -> funcs
  val num_funcs : funcs -> int
  val func : funcs -> int -> Func.t

  (** Raises [Invalid_argument] on unknown names. *)
  val func_id : funcs -> string -> int

  (** Label -> block index for one function; the lookup raises
      [Invalid_argument] on unknown labels. *)
  val block_ids : Func.t -> Label.t -> int

  (** Decode one op of a function whose labels [block_id] resolves.
      References that [Validate] would reject (unknown callee, label or
      global) raise here. *)
  val decode : funcs -> Memory.t -> block_id:(Label.t -> int) -> Op.t -> instr
end

(** {2 Running programs} *)

type result = {
  outputs : value list;
  steps : int;
  profile : Profile.t;
  return_value : value option;
}

val default_fuel : int

(** Raises [Runtime_error] on misaligned or wild accesses, division by
    zero, out-of-range input reads, or fuel exhaustion.  Each function
    is decoded on its first call ({!Code}); a reference [Validate]
    would reject raises then.  With telemetry enabled, adds the run's
    [steps] and executed blocks to [interp.steps] and [interp.blocks]. *)
val run : ?fuel:int -> Prog.t -> input:int array -> result
