(** Control-flow straightening: merge a block ending in an unconditional
    jump with its target when the target has no other predecessors.
    Grows the hyperblocks formed by [Ifconvert] and cleans up the join
    blocks the MiniC lowering creates.

    Merges happen in the order a rescan from the first block would find
    them: always the first mergeable block in layout order.  A merge
    into slot [i] makes no other block mergeable (the target's
    successors keep their predecessor counts, and the merged block only
    grows), so a walk that retries [i] until it fails and then moves on
    finds the same merges without rescanning. *)

open Vliw_ir

let merge_at ~max_ops tbl i =
  match Block_table.block tbl i with
  | None -> false
  | Some a -> (
      match Op.kind (Block.term a) with
      | Op.Jmp target
        when (not (Label.equal target (Block.label a)))
             && not (Label.equal target (Block_table.entry_label tbl)) ->
          let j = Block_table.find tbl target in
          let b = Option.get (Block_table.block tbl j) in
          if
            Block_table.pred_count tbl j <> 1
            || Block.num_ops a + Block.num_ops b - 1 > max_ops
          then false
          else begin
            Block_table.set tbl i
              (Block.v ~label:(Block.label a)
                 ~body:(Block.body a @ Block.body b)
                 ~term:(Block.term b));
            Block_table.delete tbl j;
            true
          end
      | _ -> false)

let merge_all ~max_ops tbl =
  for i = 0 to Block_table.length tbl - 1 do
    while merge_at ~max_ops tbl i do
      ()
    done
  done

let merge_func ?(max_ops = max_int) (f : Func.t) : Func.t =
  let tbl = Block_table.of_func f in
  merge_all ~max_ops tbl;
  Block_table.to_func f tbl

let run ?max_ops (prog : Prog.t) : Prog.t =
  Prog.v
    ~globals:(Prog.globals prog)
    ~funcs:(List.map (merge_func ?max_ops) (Prog.funcs prog))
    ~op_count:(Prog.op_count prog)
