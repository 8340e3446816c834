(** Dead-code elimination.

    Removes operations that neither produce an observable effect nor
    (transitively) feed one.  Liveness is computed at the register level
    over the whole function, which is conservative but safe in the
    non-SSA IR: a register is needed if any kept operation uses it, and
    an operation is kept if it has a side effect, is a terminator, or
    defines a needed register.

    Stores, I/O, calls and allocations are always kept ([Alloc] also
    because allocation order determines heap addresses).  Guarded
    operations follow the same rules — a dead guarded definition is
    still dead. *)

open Vliw_ir

let has_side_effect op =
  match Op.kind op with
  | Op.Store _ | Op.Out _ | Op.Call _ | Op.Alloc _ -> true
  | Op.In _ -> false (* pure read of the input vector *)
  | _ -> Op.is_terminator op

let dce_func (f : Func.t) : Func.t =
  (* least fixpoint of "needed", by one worklist over a register ->
     defining-ops table: a register becomes needed once, and only then
     are its definitions kept and their uses noted *)
  let defs_of : (Reg.t, Op.t) Hashtbl.t = Hashtbl.create 64 in
  Func.iter_ops
    (fun op -> List.iter (fun r -> Hashtbl.add defs_of r op) (Op.defs op))
    f;
  let needed : (Reg.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let work = Stack.create () in
  let note r =
    if not (Hashtbl.mem needed r) then begin
      Hashtbl.replace needed r ();
      Stack.push r work
    end
  in
  Func.iter_ops
    (fun op -> if has_side_effect op then List.iter note (Op.uses op))
    f;
  while not (Stack.is_empty work) do
    List.iter
      (fun op -> List.iter note (Op.uses op))
      (Hashtbl.find_all defs_of (Stack.pop work))
  done;
  let keep op =
    has_side_effect op
    || List.exists (fun r -> Hashtbl.mem needed r) (Op.defs op)
  in
  Func.map_blocks
    (fun b ->
      Block.v ~label:(Block.label b)
        ~body:(List.filter keep (Block.body b))
        ~term:(Block.term b))
    f

let run (prog : Prog.t) : Prog.t =
  let p =
    Prog.v
      ~globals:(Prog.globals prog)
      ~funcs:(List.map dce_func (Prog.funcs prog))
      ~op_count:(Prog.op_count prog)
  in
  (try Validate.check p
   with Validate.Invalid m ->
     invalid_arg ("Dce.run produced invalid IR: " ^ m));
  p
