(** Scalar simplifications: constant folding and copy propagation.

    The MiniC lowering produces many single-definition temporaries and
    variable copies; folding and propagating them shortens dependence
    chains the way a production front end (the paper's IMPACT) would
    before partitioning runs.

    Both transformations are deliberately conservative in the non-SSA IR:

    - constant folding rewrites an operation whose operands are literals
      into a copy of the result (division/remainder by zero is left
      alone — it must still trap at run time);
    - copy propagation only replaces uses of registers with exactly one,
      unguarded definition [d = copy s] where [s] is a literal or a
      register that itself has exactly one unguarded definition (such
      values never change, so any use seeing [d] may read [s] instead). *)

open Vliw_ir

let fold_ibin (o : Op.ibinop) a b : int option =
  let bool_ c = Some (if c then 1 else 0) in
  match o with
  | Op.Add -> Some (a + b)
  | Op.Sub -> Some (a - b)
  | Op.Mul -> Some (a * b)
  | Op.Div -> if b = 0 then None else Some (a / b)
  | Op.Rem -> if b = 0 then None else Some (a mod b)
  | Op.And -> Some (a land b)
  | Op.Or -> Some (a lor b)
  | Op.Xor -> Some (a lxor b)
  | Op.Shl -> if b < 0 || b > 62 then None else Some (a lsl b)
  | Op.Shr -> if b < 0 || b > 62 then None else Some (a asr b)
  | Op.Icmp Op.Ceq -> bool_ (a = b)
  | Op.Icmp Op.Cne -> bool_ (a <> b)
  | Op.Icmp Op.Clt -> bool_ (a < b)
  | Op.Icmp Op.Cle -> bool_ (a <= b)
  | Op.Icmp Op.Cgt -> bool_ (a > b)
  | Op.Icmp Op.Cge -> bool_ (a >= b)

let fold_op (op : Op.t) : Op.t =
  match Op.kind op with
  | Op.Ibin (o, d, Op.Imm a, Op.Imm b) -> (
      match fold_ibin o a b with
      | Some v -> Op.make ?guard:(Op.guard op) ~id:(Op.id op) (Op.Un (Op.Copy, d, Op.Imm v))
      | None -> op)
  | Op.Un (Op.Neg, d, Op.Imm a) ->
      Op.make ?guard:(Op.guard op) ~id:(Op.id op) (Op.Un (Op.Copy, d, Op.Imm (-a)))
  | Op.Un (Op.Not, d, Op.Imm a) ->
      Op.make ?guard:(Op.guard op) ~id:(Op.id op)
        (Op.Un (Op.Copy, d, Op.Imm (if a = 0 then 1 else 0)))
  | _ -> op

(* ------------------------------------------------------------------ *)

(** Number of definitions of each register in [f] (guarded defs count
    twice so they are never treated as single definitions). *)
let def_counts (f : Func.t) : (Reg.t, int) Hashtbl.t =
  let counts = Hashtbl.create 64 in
  let bump r n =
    Hashtbl.replace counts r (n + Option.value ~default:0 (Hashtbl.find_opt counts r))
  in
  List.iter (fun p -> bump p 1) (Func.params f);
  Func.iter_ops
    (fun op ->
      let n = if Op.is_guarded op then 2 else 1 in
      List.iter (fun r -> bump r n) (Op.defs op))
    f;
  counts

(** One round of folding and propagation over [f].  The flag is [true]
    when the round changed something: [fold_op] changed an op's kind, or
    a rewrite replaced an operand or a guard register.  Unchanged ops
    are returned as they are, and an unchanged round returns [f]
    itself. *)
let simplify_func (f : Func.t) : Func.t * bool =
  let changed = ref false in
  (* folding keeps every definition and guard, so the counts taken
     before it hold after it *)
  let counts = def_counts f in
  let single r = Hashtbl.find_opt counts r = Some 1 in
  (* pass 1: fold constants, noting propagatable copies as they appear *)
  let replacement : (Reg.t, Op.operand) Hashtbl.t = Hashtbl.create 32 in
  let fold op =
    let op' = fold_op op in
    if op' != op then changed := true;
    (match (Op.kind op', Op.guard op') with
    | Op.Un (Op.Copy, d, src), None when single d -> (
        match src with
        | Op.Imm _ | Op.Fimm _ -> Hashtbl.replace replacement d src
        | Op.Reg s when single s -> Hashtbl.replace replacement d src
        | Op.Reg _ -> ())
    | _ -> ());
    op'
  in
  let folded =
    List.map (fun b -> (b, List.map fold (Block.body b))) (Func.blocks f)
  in
  (* resolve chains d -> s -> imm *)
  let rec resolve operand depth =
    if depth > 8 then operand
    else
      match operand with
      | Op.Reg r -> (
          match Hashtbl.find_opt replacement r with
          | Some next -> resolve next (depth + 1)
          | None -> operand)
      | _ -> operand
  in
  (* pass 2: propagate; [touched] records a replacement in the current op *)
  let touched = ref false in
  let rw operand =
    match operand with
    | Op.Reg r when Hashtbl.mem replacement r -> (
        match resolve operand 0 with
        | Op.Reg r' when Reg.equal r r' -> operand
        | operand' ->
            touched := true;
            operand')
    | _ -> operand
  in
  let rwr r = match rw (Op.Reg r) with Op.Reg r' -> r' | _ -> r in
  let rewrite op =
    touched := false;
    let kind =
      match Op.kind op with
      | Op.Ibin (o, d, a, b) -> Op.Ibin (o, d, rw a, rw b)
      | Op.Fbin (o, d, a, b) -> Op.Fbin (o, d, rw a, rw b)
      | Op.Un (o, d, a) -> Op.Un (o, d, rw a)
      | Op.Load { dst; base; offset } ->
          Op.Load { dst; base = rw base; offset = rw offset }
      | Op.Store { src; base; offset } ->
          Op.Store { src = rw src; base = rw base; offset = rw offset }
      | Op.Addr _ as k -> k
      | Op.Alloc { dst; size; site } -> Op.Alloc { dst; size = rw size; site }
      | Op.Call { dst; callee; args } ->
          Op.Call { dst; callee; args = List.map rw args }
      | Op.In { dst; index } -> Op.In { dst; index = rw index }
      | Op.Out a -> Op.Out (rw a)
      | Op.Cbr { cond; if_true; if_false } ->
          Op.Cbr { cond = rw cond; if_true; if_false }
      | (Op.Jmp _ | Op.Ret None) as k -> k
      | Op.Ret (Some a) -> Op.Ret (Some (rw a))
      | Op.Move { dst; src } -> Op.Move { dst; src = rwr src }
    in
    let guard =
      Option.map
        (fun { Op.greg; gsense } -> { Op.greg = rwr greg; gsense })
        (Op.guard op)
    in
    if !touched then begin
      changed := true;
      Op.make ?guard ~id:(Op.id op) kind
    end
    else op
  in
  let blocks =
    List.map
      (fun (b, body) ->
        Block.v ~label:(Block.label b)
          ~body:(List.map rewrite body)
          ~term:(rewrite (Block.term b)))
      folded
  in
  if !changed then (Func.with_blocks f blocks, true) else (f, false)

(** Iterate folding + propagation until a round changes nothing, at most
    four rounds per function.  A function's rounds read only that
    function, so once a round leaves it unchanged every later round
    would too: each function stops on its own. *)
let run (prog : Prog.t) : Prog.t =
  let rec go f n =
    if n = 0 then f
    else
      let f', changed = simplify_func f in
      if changed then go f' (n - 1) else f'
  in
  let p =
    Prog.v
      ~globals:(Prog.globals prog)
      ~funcs:(List.map (fun f -> go f 4) (Prog.funcs prog))
      ~op_count:(Prog.op_count prog)
  in
  (try Validate.check p
   with Validate.Invalid m ->
     invalid_arg ("Simplify.run produced invalid IR: " ^ m));
  p
