(** Reference interpreter for the VLIW IR.

    Serves three roles:
    - functional semantics: computing the observable output of a program
      on a workload input (the oracle for semantic-preservation tests);
    - the profiler of the paper's framework: block execution counts,
      per-operation object access counts, heap allocation sizes;
    - a dynamic checker: every executed memory access must fall inside a
      live data object (there is no undefined-behaviour escape hatch).

    Memory is a flat byte-addressed space holding 8-byte words.  Globals
    are laid out at increasing addresses from [global_base] with guard
    gaps; the heap bump-allocates from [heap_base].

    Each function is decoded once per run, on its first call, into
    arrays of {!Code.instr}: registers become array indices, immediates
    are boxed once, branch targets are block indices and callees are
    function indices.  Counts live in [int array]s indexed by op id and
    block index and become a {!Profile.t} when the run ends. *)

open Vliw_ir

exception Runtime_error of string

let runtime_error fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

type value = VInt of int | VFloat of float

let pp_value ppf = function
  | VInt i -> Fmt.int ppf i
  | VFloat f -> Fmt.pf ppf "%.6g" f

let equal_value a b =
  match (a, b) with
  | VInt x, VInt y -> Int.equal x y
  | VFloat x, VFloat y ->
      (* exact comparison: the pipelines must preserve bit-identical
         results, both sides run the same float ops in the same order *)
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | VInt _, VFloat _ | VFloat _, VInt _ -> false

let to_int = function
  | VInt i -> i
  | VFloat f -> runtime_error "expected an int value, found float %g" f

(* Words read from zero-initialized storage are VInt 0; float code may
   legitimately read them, so ints promote to floats silently. *)
let to_float = function VFloat f -> f | VInt i -> float_of_int i

let global_base = 0x1000
let heap_base = 0x1000000
let word = Data.word_bytes

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)

(* [grow a n fill] is [a] if index [n] is in bounds, else a copy at
   least twice as long, padded with [fill]. *)
let grow a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (max 16 (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

module Memory = struct
  (* Two parts.  The range table says which object owns an address: one
     range per global and one per executed allocation, the globals and
     then the heap ranges each in increasing address order.  The cells
     are words keyed by address, stored in pages of [page_words] that
     are created on first write, so an allocation costs only the memory
     the program touches.  A direct-mapped cache keeps recently used
     pages one array load away.  Objects are interned to dense indices:
     the globals first, in declaration order, then heap sites as they
     are first seen. *)
  type t = {
    mutable lo : int array;
    mutable hi : int array;  (** past the end *)
    mutable owner : int array;  (** object index of each range *)
    mutable nranges : int;
    nglobals : int;  (** ranges [[0, nglobals)] are the globals *)
    mutable last : int;  (** the range the previous lookup hit *)
    mutable heap_next : int;
    global_addrs : (string, int) Hashtbl.t;
    obj_ids : (Data.obj, int) Hashtbl.t;
    mutable objs : Data.obj array;
    mutable nobjs : int;
    pages : (int, value array) Hashtbl.t;  (** page number -> its words *)
    cache_key : int array;  (** page number held by each slot, or -1 *)
    cache_page : value array array;
    unaligned : (int, value) Hashtbl.t;
        (** words at misaligned addresses, which only an unchecked
            reader (the simulator) reaches *)
  }

  let zero = VInt 0
  let page_bits = 5
  let page_words = 1 lsl page_bits
  let cache_slots = 256

  (* Stands in for every page never written; never written itself. *)
  let zero_page = Array.make page_words zero

  let intern t o =
    match Hashtbl.find_opt t.obj_ids o with
    | Some i -> i
    | None ->
        let i = t.nobjs in
        t.objs <- grow t.objs i o;
        t.objs.(i) <- o;
        t.nobjs <- i + 1;
        Hashtbl.replace t.obj_ids o i;
        i

  let obj t i = t.objs.(i)
  let num_objs t = t.nobjs

  let add_range t lo bytes o =
    let r = t.nranges in
    t.lo <- grow t.lo r 0;
    t.hi <- grow t.hi r 0;
    t.owner <- grow t.owner r 0;
    t.lo.(r) <- lo;
    t.hi.(r) <- lo + bytes;
    t.owner.(r) <- intern t o;
    t.nranges <- r + 1

  let page t pno =
    let k = pno land (cache_slots - 1) in
    if t.cache_key.(k) = pno then t.cache_page.(k)
    else begin
      let p =
        match Hashtbl.find_opt t.pages pno with Some p -> p | None -> zero_page
      in
      t.cache_key.(k) <- pno;
      t.cache_page.(k) <- p;
      p
    end

  let get t addr =
    if addr mod word <> 0 then
      Option.value ~default:zero (Hashtbl.find_opt t.unaligned addr)
    else
      let w = addr / word in
      (page t (w asr page_bits)).(w land (page_words - 1))

  let set t addr v =
    if addr mod word <> 0 then Hashtbl.replace t.unaligned addr v
    else begin
      let w = addr / word in
      let pno = w asr page_bits in
      let p = page t pno in
      let p =
        if p != zero_page then p
        else begin
          let p = Array.make page_words zero in
          Hashtbl.replace t.pages pno p;
          (* [page] has just put [pno] in its slot *)
          t.cache_page.(pno land (cache_slots - 1)) <- p;
          p
        end
      in
      p.(w land (page_words - 1)) <- v
    end

  let create prog =
    let globals = Prog.globals prog in
    let t =
      {
        lo = [||];
        hi = [||];
        owner = [||];
        nranges = 0;
        nglobals = List.length globals;
        last = 0;
        heap_next = heap_base;
        global_addrs = Hashtbl.create 16;
        obj_ids = Hashtbl.create 16;
        objs = [||];
        nobjs = 0;
        pages = Hashtbl.create 64;
        cache_key = Array.make cache_slots (-1);
        cache_page = Array.make cache_slots zero_page;
        unaligned = Hashtbl.create 1;
      }
    in
    let next = ref global_base in
    List.iter
      (fun (g : Data.global) ->
        let base = !next in
        Hashtbl.replace t.global_addrs g.Data.g_name base;
        let bytes = Data.global_bytes g in
        add_range t base bytes (Data.Global g.Data.g_name);
        (match g.Data.g_init with
        | Data.Zero -> ()
        | Data.Words ws ->
            Array.iteri
              (fun i w ->
                set t
                  (base + (i * word))
                  (if g.Data.g_is_float then VFloat (Int64.float_of_bits w)
                   else VInt (Int64.to_int w)))
              ws);
        (* 64-byte guard gap keeps out-of-bounds walks detectable *)
        next := base + bytes + 64)
      globals;
    t

  let global_addr t name = Hashtbl.find t.global_addrs name

  let alloc t ~site bytes =
    if bytes < 0 then runtime_error "negative allocation";
    let rounded = (bytes + word - 1) / word * word in
    let base = t.heap_next in
    t.heap_next <- base + rounded + 64;
    add_range t base rounded (Data.Heap site);
    base

  (* The range of [[l, h)] holding [addr], or -1; those ranges are
     disjoint and in increasing address order. *)
  let search t l h addr =
    (* the last range starting at or below [addr] *)
    let l = ref l and h = ref (h - 1) and r = ref (-1) in
    while !l <= !h do
      let m = (!l + !h) lsr 1 in
      if t.lo.(m) <= addr then begin
        r := m;
        l := m + 1
      end
      else h := m - 1
    done;
    if !r >= 0 && addr < t.hi.(!r) then !r else -1

  (* Globals that reach past the heap base overlap the heap; there the
     heap range is the one that holds the address. *)
  let find t addr =
    let c = t.last in
    if
      c < t.nranges
      && t.lo.(c) <= addr
      && addr < t.hi.(c)
      && (c >= t.nglobals || addr < heap_base)
    then c
    else begin
      let r =
        if addr >= heap_base then search t t.nglobals t.nranges addr else -1
      in
      let r = if r >= 0 then r else search t 0 t.nglobals addr in
      if r >= 0 then t.last <- r;
      r
    end

  let owner t r = t.owner.(r)

  let check_aligned addr =
    if addr mod word <> 0 then
      runtime_error "misaligned access at address 0x%x" addr
end

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)

let eval_ibin op a b =
  let a = to_int a and b = to_int b in
  let bool_ c = VInt (if c then 1 else 0) in
  match (op : Op.ibinop) with
  | Op.Add -> VInt (a + b)
  | Op.Sub -> VInt (a - b)
  | Op.Mul -> VInt (a * b)
  | Op.Div -> if b = 0 then runtime_error "division by zero" else VInt (a / b)
  | Op.Rem -> if b = 0 then runtime_error "remainder by zero" else VInt (a mod b)
  | Op.And -> VInt (a land b)
  | Op.Or -> VInt (a lor b)
  | Op.Xor -> VInt (a lxor b)
  | Op.Shl -> VInt (a lsl b)
  | Op.Shr -> VInt (a asr b)
  | Op.Icmp Op.Ceq -> bool_ (a = b)
  | Op.Icmp Op.Cne -> bool_ (a <> b)
  | Op.Icmp Op.Clt -> bool_ (a < b)
  | Op.Icmp Op.Cle -> bool_ (a <= b)
  | Op.Icmp Op.Cgt -> bool_ (a > b)
  | Op.Icmp Op.Cge -> bool_ (a >= b)

let eval_fbin op a b =
  let a = to_float a and b = to_float b in
  let bool_ c = VInt (if c then 1 else 0) in
  match (op : Op.fbinop) with
  | Op.Fadd -> VFloat (a +. b)
  | Op.Fsub -> VFloat (a -. b)
  | Op.Fmul -> VFloat (a *. b)
  | Op.Fdiv -> VFloat (a /. b)
  | Op.Fcmp Op.Ceq -> bool_ (a = b)
  | Op.Fcmp Op.Cne -> bool_ (a <> b)
  | Op.Fcmp Op.Clt -> bool_ (a < b)
  | Op.Fcmp Op.Cle -> bool_ (a <= b)
  | Op.Fcmp Op.Cgt -> bool_ (a > b)
  | Op.Fcmp Op.Cge -> bool_ (a >= b)

let eval_un op a =
  match (op : Op.unop) with
  | Op.Neg -> VInt (-to_int a)
  | Op.Not -> VInt (if to_int a = 0 then 1 else 0)
  | Op.Copy -> a
  | Op.Itof -> VFloat (to_float a)
  | Op.Ftoi -> VInt (int_of_float (to_float a))

(* ------------------------------------------------------------------ *)
(* Decoded code                                                        *)

module Code = struct
  type src = R of int | K of value

  type kind =
    | Ibin of Op.ibinop * int * src * src
    | Fbin of Op.fbinop * int * src * src
    | Un of Op.unop * int * src
    | Load of int * src * src
    | Store of src * src * src
    | Addr of int * value
    | Alloc of int * src * int
    | Call of int * int * src list
    | In of int * src
    | Out of src
    | Move of int * int
    | Jmp of int
    | Cbr of src * int * int
    | Ret of src option

  type instr = { id : int; guard : int; gsense : bool; kind : kind }

  type funcs = { funcs : Func.t array; ids : (string, int) Hashtbl.t }

  let index_funcs prog =
    let funcs = Array.of_list (Prog.funcs prog) in
    let ids = Hashtbl.create (2 * Array.length funcs) in
    Array.iteri (fun i f -> Hashtbl.replace ids (Func.name f) i) funcs;
    { funcs; ids }

  let num_funcs fs = Array.length fs.funcs
  let func fs i = fs.funcs.(i)

  let func_id fs name =
    match Hashtbl.find_opt fs.ids name with
    | Some i -> i
    | None -> invalid_arg ("call to unknown function " ^ name)

  let block_ids f =
    let ids = Hashtbl.create 16 in
    List.iteri
      (fun i b -> Hashtbl.replace ids (Block.label b) i)
      (Func.blocks f);
    fun l ->
      match Hashtbl.find_opt ids l with
      | Some i -> i
      | None ->
          invalid_arg
            (Fmt.str "%s: branch to unknown label %a" (Func.name f) Label.pp l)

  let src = function
    | Op.Reg r -> R (Reg.to_int r)
    | Op.Imm i -> K (VInt i)
    | Op.Fimm f -> K (VFloat f)

  let decode fs mem ~block_id (op : Op.t) =
    let r = Reg.to_int in
    let kind =
      match Op.kind op with
      | Op.Ibin (o, d, a, b) -> Ibin (o, r d, src a, src b)
      | Op.Fbin (o, d, a, b) -> Fbin (o, r d, src a, src b)
      | Op.Un (o, d, a) -> Un (o, r d, src a)
      | Op.Load { dst; base; offset } -> Load (r dst, src base, src offset)
      | Op.Store { src = s; base; offset } ->
          Store (src s, src base, src offset)
      | Op.Addr { dst; obj } -> Addr (r dst, VInt (Memory.global_addr mem obj))
      | Op.Alloc { dst; size; site } -> Alloc (r dst, src size, site)
      | Op.Call { dst; callee; args } ->
          Call
            ( (match dst with Some d -> r d | None -> -1),
              func_id fs callee,
              List.map src args )
      | Op.In { dst; index } -> In (r dst, src index)
      | Op.Out a -> Out (src a)
      | Op.Move { dst; src = s } -> Move (r dst, r s)
      | Op.Jmp l -> Jmp (block_id l)
      | Op.Cbr { cond; if_true; if_false } ->
          Cbr (src cond, block_id if_true, block_id if_false)
      | Op.Ret v -> Ret (Option.map src v)
    in
    let guard, gsense =
      match Op.guard op with
      | None -> (-1, true)
      | Some { Op.greg; gsense } -> (r greg, gsense)
    in
    { id = Op.id op; guard; gsense; kind }
end

(* ------------------------------------------------------------------ *)
(* Machine state                                                       *)

type block = { body : Code.instr array; term : Code.instr }

type func = {
  func : Func.t;
  nregs : int;
  params : int array;
  blocks : block array;
  counts : int array;  (** executions per block *)
}

(* Dynamic accesses of one memory op to one object. *)
type access = { obj : int; mutable n : int }

type state = {
  mem : Memory.t;
  fs : Code.funcs;
  decoded : func option array;
  input : int array;
  mutable outputs_rev : value list;
  mutable steps : int;
  fuel : int;
  op_counts : int array;  (** op id -> executions *)
  accesses : access list array;
      (** memory op id -> accesses per object, most recently first seen
          object first *)
  heap_sizes : (int, int) Hashtbl.t;  (** malloc site -> total bytes *)
}

let decode_func st i =
  match st.decoded.(i) with
  | Some d -> d
  | None ->
      let f = Code.func st.fs i in
      let block_id = Code.block_ids f in
      let decode = Code.decode st.fs st.mem ~block_id in
      let blocks =
        Array.of_list
          (List.map
             (fun b ->
               {
                 body = Array.of_list (List.map decode (Block.body b));
                 term = decode (Block.term b);
               })
             (Func.blocks f))
      in
      let d =
        {
          func = f;
          nregs = Func.reg_count f;
          params = Array.of_list (List.map Reg.to_int (Func.params f));
          blocks;
          counts = Array.make (Array.length blocks) 0;
        }
      in
      st.decoded.(i) <- Some d;
      d

let value regs = function Code.R r -> regs.(r) | Code.K v -> v [@@inline]

let tick st =
  st.steps <- st.steps + 1;
  if st.steps > st.fuel then runtime_error "out of fuel"
[@@inline]

let check_access st addr =
  Memory.check_aligned addr;
  let r = Memory.find st.mem addr in
  if r < 0 then runtime_error "wild memory access at address 0x%x" addr;
  r

let rec bump_access obj = function
  | a :: rest ->
      if a.obj = obj then begin
        a.n <- a.n + 1;
        true
      end
      else bump_access obj rest
  | [] -> false

let record_access st id obj =
  if not (bump_access obj st.accesses.(id)) then
    st.accesses.(id) <- { obj; n = 1 } :: st.accesses.(id)

let rec exec_func st fid (args : value list) : value option =
  let d = decode_func st fid in
  let regs = Array.make d.nregs (VInt 0) in
  if List.compare_length_with args (Array.length d.params) <> 0 then
    runtime_error "arity mismatch calling %s" (Func.name d.func);
  List.iteri (fun i a -> regs.(d.params.(i)) <- a) args;
  let rec run_block bi =
    let b = d.blocks.(bi) in
    d.counts.(bi) <- d.counts.(bi) + 1;
    let body = b.body in
    for i = 0 to Array.length body - 1 do
      exec_op st regs body.(i)
    done;
    let term = b.term in
    tick st;
    st.op_counts.(term.Code.id) <- st.op_counts.(term.Code.id) + 1;
    match term.Code.kind with
    | Code.Jmp t -> run_block t
    | Code.Cbr (c, t, f) ->
        run_block (if to_int (value regs c) <> 0 then t else f)
    | Code.Ret None -> None
    | Code.Ret (Some o) -> Some (value regs o)
    | _ -> assert false
  in
  run_block 0

and exec_op st regs (ins : Code.instr) =
  tick st;
  if
    ins.Code.guard >= 0
    && not (Bool.equal (to_int regs.(ins.Code.guard) <> 0) ins.Code.gsense)
  then () (* nullified: no effect, not profiled *)
  else begin
    st.op_counts.(ins.Code.id) <- st.op_counts.(ins.Code.id) + 1;
    match ins.Code.kind with
    | Code.Ibin (o, d, a, b) ->
        regs.(d) <- eval_ibin o (value regs a) (value regs b)
    | Code.Fbin (o, d, a, b) ->
        regs.(d) <- eval_fbin o (value regs a) (value regs b)
    | Code.Un (o, d, a) -> regs.(d) <- eval_un o (value regs a)
    | Code.Load (dst, base, offset) ->
        let addr = to_int (value regs base) + to_int (value regs offset) in
        let r = check_access st addr in
        record_access st ins.Code.id (Memory.owner st.mem r);
        regs.(dst) <- Memory.get st.mem addr
    | Code.Store (src, base, offset) ->
        let addr = to_int (value regs base) + to_int (value regs offset) in
        let r = check_access st addr in
        record_access st ins.Code.id (Memory.owner st.mem r);
        Memory.set st.mem addr (value regs src)
    | Code.Addr (dst, a) -> regs.(dst) <- a
    | Code.Alloc (dst, size, site) ->
        let bytes = to_int (value regs size) in
        let base = Memory.alloc st.mem ~site bytes in
        Hashtbl.replace st.heap_sizes site
          (bytes
          + Option.value ~default:0 (Hashtbl.find_opt st.heap_sizes site));
        regs.(dst) <- VInt base
    | Code.Call (dst, callee, args) -> (
        let vals = List.map (value regs) args in
        match exec_func st callee vals with
        | Some r -> if dst >= 0 then regs.(dst) <- r
        | None ->
            if dst >= 0 then
              runtime_error "call to %s expected a result but none returned"
                (Func.name (Code.func st.fs callee)))
    | Code.In (dst, index) ->
        let i = to_int (value regs index) in
        if i < 0 || i >= Array.length st.input then
          runtime_error "input index %d out of bounds (input has %d words)" i
            (Array.length st.input);
        regs.(dst) <- VInt st.input.(i)
    | Code.Out a -> st.outputs_rev <- value regs a :: st.outputs_rev
    | Code.Move (dst, src) -> regs.(dst) <- regs.(src)
    | Code.Jmp _ | Code.Cbr _ | Code.Ret _ ->
        assert false (* terminators handled by run_block *)
  end

(* ------------------------------------------------------------------ *)

type result = {
  outputs : value list;
  steps : int;
  profile : Profile.t;
  return_value : value option;
}

let default_fuel = 50_000_000

let profile_of st =
  let block_counts = ref [] and blocks = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some d ->
          List.iteri
            (fun i b ->
              let n = d.counts.(i) in
              blocks := !blocks + n;
              if n > 0 then
                block_counts :=
                  ((Func.name d.func, Block.label b), n) :: !block_counts)
            (Func.blocks d.func))
    st.decoded;
  let accesses =
    Array.map
      (fun l -> List.rev_map (fun a -> (Memory.obj st.mem a.obj, a.n)) l)
      st.accesses
  in
  let profile =
    Profile.make ~block_counts:!block_counts ~op_counts:st.op_counts
      ~accesses
      ~heap_sizes:
        (Hashtbl.fold (fun s b acc -> (s, b) :: acc) st.heap_sizes [])
  in
  (profile, !blocks)

(** Run [prog] on workload [input].  Raises [Runtime_error] on dynamic
    errors (misaligned or wild access, division by zero, fuel
    exhaustion). *)
let run ?(fuel = default_fuel) prog ~input : result =
  let fs = Code.index_funcs prog in
  let nops = Prog.op_count prog in
  let st =
    {
      mem = Memory.create prog;
      fs;
      decoded = Array.make (Code.num_funcs fs) None;
      input;
      outputs_rev = [];
      steps = 0;
      fuel;
      op_counts = Array.make nops 0;
      accesses = Array.make nops [];
      heap_sizes = Hashtbl.create 16;
    }
  in
  let ret = exec_func st (Code.func_id fs (Func.name (Prog.main prog))) [] in
  let profile, blocks = profile_of st in
  if Telemetry.is_enabled () then begin
    Telemetry.incr "interp.steps" ~by:st.steps;
    Telemetry.incr "interp.blocks" ~by:blocks
  end;
  {
    outputs = List.rev st.outputs_rev;
    steps = st.steps;
    profile;
    return_value = ret;
  }
