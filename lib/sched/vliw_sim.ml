(** Cycle-level simulator for scheduled, clustered programs.

    Executes the VLIW schedules produced by [List_sched] with explicit
    timing: an operation issued at cycle [t] reads its registers as of
    [t] and commits its result at [t + latency].  The simulator is the
    validation substrate for the whole pipeline:

    - if move insertion or the scheduler breaks a dependence, the stale
      read changes the program's observable output (compared against the
      reference interpreter) or trips the latency checker;
    - function-unit and bus over-subscription is detected per cycle;
    - the accumulated cycle count must equal the static model's
      [Perf.total_cycles] (same schedules, same profile weights).

    Cross-block and cross-call in-flight latencies are cut: pending
    writes commit when the block ends (the static model makes the same
    approximation; see DESIGN.md).

    Each function's CFG and liveness are computed on its first call;
    each block is scheduled, checked ([check_resources]) and decoded on
    its first execution into an array of entries carrying the decoded
    op ({!Vliw_interp.Interp.Code}), its write latency, its route and,
    when accounting, its attribution.  Pending register writes live in
    arrays kept in commit order, so a cycle with nothing due costs one
    comparison. *)

open Vliw_ir
module I = Vliw_interp.Interp
module M = I.Memory
module C = I.Code

exception Sim_error of string

let sim_error fmt = Fmt.kstr (fun s -> raise (Sim_error s)) fmt

type result = {
  outputs : I.value list;
  cycles : int;  (** sum of block schedule lengths over the execution *)
  dynamic_moves : int;
  account : Attrib.totals option;  (** when run with [~account:true] *)
}

(** Check a block schedule statically: per-cycle resource legality.
    Moves are charged one issue slot on every link of their route, so
    link contention the scheduler missed (or a fault injected past it)
    is caught here — on the bus this is the seed's single shared
    counter. *)
let check_resources (machine : Vliw_machine.t)
    ~(move_routes : (int, int * int) Hashtbl.t) (s : List_sched.t) =
  let by_cycle = Hashtbl.create 32 in
  Array.iter
    (fun (e : List_sched.entry) ->
      Hashtbl.replace by_cycle e.List_sched.cycle
        (e
        :: Option.value ~default:[]
             (Hashtbl.find_opt by_cycle e.List_sched.cycle)))
    (List_sched.entries s);
  let nlinks = Vliw_machine.num_link_slots machine in
  Hashtbl.iter
    (fun cycle entries ->
      let nclusters = Vliw_machine.num_clusters machine in
      let used = Array.make_matrix nclusters Vliw_machine.fu_kind_count 0 in
      let links = Array.make nlinks 0 in
      List.iter
        (fun (e : List_sched.entry) ->
          match e.List_sched.cluster with
          | None ->
              let op_id = Op.id e.List_sched.op in
              let src, dst =
                match Hashtbl.find_opt move_routes op_id with
                | Some r -> r
                | None ->
                    sim_error "cycle %d: scheduled bus move %d has no route"
                      cycle op_id
              in
              List.iter
                (fun l -> links.(l) <- links.(l) + 1)
                (Vliw_machine.route_links machine ~src ~dst)
          | Some c ->
              let k = Vliw_machine.fu_kind_index (Op.fu_kind e.List_sched.op) in
              used.(c).(k) <- used.(c).(k) + 1)
        entries;
      Array.iteri
        (fun l n ->
          if n > Vliw_machine.moves_per_cycle machine then
            match Vliw_machine.topology machine with
            | Vliw_machine.Bus ->
                sim_error "cycle %d: bus oversubscribed (%d moves)" cycle n
            | _ ->
                sim_error "cycle %d: link %d->%d oversubscribed (%d moves)"
                  cycle (l / nclusters) (l mod nclusters) n)
        links;
      for c = 0 to nclusters - 1 do
        List.iter
          (fun k ->
            let i = Vliw_machine.fu_kind_index k in
            let cap = Vliw_machine.fu_count (Vliw_machine.cluster_of machine c) k in
            if used.(c).(i) > cap then
              sim_error "cycle %d: cluster %d %s units oversubscribed (%d > %d)"
                cycle c (Vliw_machine.fu_kind_name k) used.(c).(i) cap)
          Vliw_machine.all_fu_kinds
      done)
    by_cycle

(* ------------------------------------------------------------------ *)
(* Decoded form                                                        *)

(** One schedule entry, decoded on the block's first execution. *)
type entry = {
  cycle : int;
  ins : C.instr;
  lat : int;  (** cycles until the op's register write commits *)
  link : int;
      (** [src * clusters + dst] of an intercluster move's route, [-1]
          for every other op *)
  remote : bool;
      (** accounting: a memory op whose value or address crosses
          clusters *)
  carries : int list;
      (** accounting: objects whose data a routed move carries, [[]] for
          pure compute flow *)
}

type block = {
  label : Label.t;
  length : int;
  entries : entry array;  (** in issue order *)
  categories : int array;  (** accounting: cycles per category *)
}

type func = {
  func : Func.t;
  nregs : int;
  params : int array;
  block_id : Label.t -> int;
  liveness : Vliw_analysis.Liveness.t;  (** computed once per function *)
  blocks : block option array;  (** decoded on first execution *)
}

(** Dynamic attribution accumulators, indexed by link and by interned
    object.  Block accounts are decoded with the schedules, so
    accounting adds O(1) work per executed block, memory op and move. *)
type acct = {
  ac_categories : int array;
  ac_links : int array;
  mutable ac_obj_moves : int array;
  mutable ac_unattributed : int;
  mutable ac_local : int array;
  mutable ac_remote : int array;
}

type state = {
  machine : Vliw_machine.t;
  assign : Assignment.t;
  move_routes : (int, int * int) Hashtbl.t;
  objects_of : int -> Data.Obj_set.t;
  mem : M.t;
  fs : C.funcs;
  funcs : func option array;
  input : int array;
  mutable outputs_rev : I.value list;
  mutable cycles : int;
  mutable moves : int;
  acct : acct option;
  mutable fuel : int;
  (* Pending register writes, one segment per active block (a callee's
     blocks stack theirs above their caller's), kept in commit order:
     by ready cycle, then issue cycle, then newest first, so of two
     writes to one register that are due together and were issued in
     the same cycle the older lands last and wins.  [p_seq] numbers
     writes in issue order. *)
  mutable p_reg : int array;
  mutable p_val : I.value array;
  mutable p_ready : int array;
  mutable p_issued : int array;
  mutable p_seq : int array;
  mutable p_top : int;
  mutable seq : int;
}

(** One block execution: its function activation's registers and
    pending-write counts per register, and its segment of pending
    writes, [[head, p_top)]. *)
type frame = {
  fn : func;
  block : block;
  regs : I.value array;
  pend : int array;
  mutable head : int;
}

let bump a i =
  let a = I.grow a i 0 in
  a.(i) <- a.(i) + 1;
  a

let func_of st fid =
  match st.funcs.(fid) with
  | Some d -> d
  | None ->
      let f = C.func st.fs fid in
      let d =
        {
          func = f;
          nregs = Func.reg_count f;
          params = Array.of_list (List.map Reg.to_int (Func.params f));
          block_id = C.block_ids f;
          liveness =
            Vliw_analysis.Liveness.compute (Vliw_analysis.Cfg.of_func f);
          blocks = Array.make (List.length (Func.blocks f)) None;
        }
      in
      st.funcs.(fid) <- Some d;
      d

(* Schedule, check and decode a block; its index is also its CFG index. *)
let block_of st d bi =
  match d.blocks.(bi) with
  | Some b -> b
  | None ->
      let blk = List.nth (Func.blocks d.func) bi in
      let live_out = Vliw_analysis.Liveness.live_out d.liveness bi in
      let move_routes = st.move_routes and machine = st.machine in
      let sched =
        List_sched.schedule_block ~machine ~assign:st.assign ~move_routes
          ~objects_of:st.objects_of ~live_out blk
      in
      check_resources machine ~move_routes sched;
      let account =
        Option.map
          (fun _ ->
            Attrib.account_block ~machine ~move_routes
              ~objects_of:st.objects_of blk sched)
          st.acct
      in
      let nclusters = Vliw_machine.num_clusters machine in
      let decode (e : List_sched.entry) =
        let op = e.List_sched.op in
        let id = Op.id op in
        let route = Hashtbl.find_opt move_routes id in
        {
          cycle = e.List_sched.cycle;
          ins = C.decode st.fs st.mem ~block_id:d.block_id op;
          lat = List_sched.latency_of ~machine ~move_routes op;
          link =
            (match route with Some (s, t) -> (s * nclusters) + t | None -> -1);
          remote =
            (match account with
            | Some bk -> Hashtbl.mem bk.Attrib.bk_remote_mem id
            | None -> false);
          carries =
            (match account with
            | Some bk -> (
                match Hashtbl.find_opt bk.Attrib.bk_move_objs id with
                | Some objs -> List.map (M.intern st.mem) objs
                | None -> [])
            | None -> []);
        }
      in
      let b =
        {
          label = Block.label blk;
          length = List_sched.length sched;
          entries = Array.map decode (List_sched.entries sched);
          categories =
            (match account with
            | Some bk -> bk.Attrib.bk_categories
            | None -> [||]);
        }
      in
      d.blocks.(bi) <- Some b;
      b

(* ------------------------------------------------------------------ *)
(* Pending writes                                                      *)

let push st fr reg v ~ready ~issued =
  let top = st.p_top in
  if top >= Array.length st.p_reg then begin
    st.p_reg <- I.grow st.p_reg top 0;
    st.p_val <- I.grow st.p_val top (I.VInt 0);
    st.p_ready <- I.grow st.p_ready top 0;
    st.p_issued <- I.grow st.p_issued top 0;
    st.p_seq <- I.grow st.p_seq top 0
  end;
  (* every pending write was issued at or before [issued], so the new
     one goes after those due earlier and before same-cycle ones *)
  let i = ref top in
  while
    !i > fr.head
    && (st.p_ready.(!i - 1) > ready
       || (st.p_ready.(!i - 1) = ready && st.p_issued.(!i - 1) = issued))
  do
    let j = !i - 1 in
    st.p_reg.(!i) <- st.p_reg.(j);
    st.p_val.(!i) <- st.p_val.(j);
    st.p_ready.(!i) <- st.p_ready.(j);
    st.p_issued.(!i) <- st.p_issued.(j);
    st.p_seq.(!i) <- st.p_seq.(j);
    i := j
  done;
  let i = !i in
  st.p_reg.(i) <- reg;
  st.p_val.(i) <- v;
  st.p_ready.(i) <- ready;
  st.p_issued.(i) <- issued;
  st.p_seq.(i) <- st.seq;
  st.seq <- st.seq + 1;
  st.p_top <- top + 1;
  fr.pend.(reg) <- fr.pend.(reg) + 1

(* Commit the writes of the frame's segment that are due at [t]. *)
let commit st fr t =
  while fr.head < st.p_top && st.p_ready.(fr.head) <= t do
    let i = fr.head in
    let r = st.p_reg.(i) in
    fr.regs.(r) <- st.p_val.(i);
    fr.pend.(r) <- fr.pend.(r) - 1;
    fr.head <- i + 1
  done

(* A read of [r] at [t] while a write issued before [t] is in flight:
   report the newest such write. *)
let latency_violation st fr t r =
  let found = ref (-1) in
  for i = fr.head to st.p_top - 1 do
    if
      st.p_reg.(i) = r && st.p_issued.(i) < t && st.p_ready.(i) > t
      && (!found < 0 || st.p_seq.(i) > st.p_seq.(!found))
    then found := i
  done;
  if !found >= 0 then
    sim_error
      "latency violation: %s/%a reads %a at cycle %d but a write issued at %d \
       completes at %d"
      (Func.name fr.fn.func) Label.pp fr.block.label Reg.pp r t
      st.p_issued.(!found) st.p_ready.(!found)

let read st fr t r =
  if fr.pend.(r) > 0 then latency_violation st fr t r;
  fr.regs.(r)
[@@inline]

let operand st fr t = function C.R r -> read st fr t r | C.K v -> v
[@@inline]

let write st fr (e : entry) t reg v =
  (* fault injection: timing fault — an intercluster transfer takes
     longer than the machine model promises, so a consumer issued
     against the nominal latency reads a stale value *)
  let lat =
    if e.link >= 0 && Fault.fire "sim.move-latency" then
      e.lat + 1 + Fault.rand "sim.move-latency" 3
    else e.lat
  in
  (* fault injection: data fault — the bus corrupts the transferred
     value *)
  let v =
    if e.link >= 0 && Fault.fire "sim.move-value" then
      match v with
      | I.VInt i -> I.VInt (i + 1 + Fault.rand "sim.move-value" 7)
      | I.VFloat f -> I.VFloat (f +. 1.0)
    else v
  in
  push st fr reg v ~ready:(t + lat) ~issued:t

let acct_access st (e : entry) r =
  match st.acct with
  | None -> ()
  | Some a ->
      let o = M.owner st.mem r in
      if e.remote then a.ac_remote <- bump a.ac_remote o
      else a.ac_local <- bump a.ac_local o

let acct_move st (e : entry) =
  match st.acct with
  | Some a when e.link >= 0 -> (
      a.ac_links.(e.link) <- a.ac_links.(e.link) + 1;
      match e.carries with
      | [] -> a.ac_unattributed <- a.ac_unattributed + 1
      | objs ->
          List.iter (fun o -> a.ac_obj_moves <- bump a.ac_obj_moves o) objs)
  | _ -> ()

type outcome = Fell_through | Next of int | Return of I.value option

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

let rec exec_func st fid (args : I.value list) : I.value option =
  let d = func_of st fid in
  let regs = Array.make d.nregs (I.VInt 0) in
  let pend = Array.make d.nregs 0 in
  if List.compare_length_with args (Array.length d.params) <> 0 then
    sim_error "arity mismatch calling %s" (Func.name d.func);
  List.iteri (fun i a -> regs.(d.params.(i)) <- a) args;
  run_block st d regs pend 0

and run_block st d regs pend bi =
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then sim_error "out of fuel";
  let b = block_of st d bi in
  st.cycles <- st.cycles + b.length;
  (match st.acct with
  | None -> ()
  | Some a ->
      Array.iteri
        (fun i n -> a.ac_categories.(i) <- a.ac_categories.(i) + n)
        b.categories);
  let base = st.p_top in
  let fr = { fn = d; block = b; regs; pend; head = base } in
  let outcome = ref Fell_through in
  (try
     for k = 0 to Array.length b.entries - 1 do
       let e = b.entries.(k) in
       let t = e.cycle in
       (* test before calling: most entries have nothing due *)
       if fr.head < st.p_top && st.p_ready.(fr.head) <= t then commit st fr t;
       let ins = e.ins in
       if
         ins.C.guard >= 0
         && not
              (Bool.equal
                 (I.to_int (read st fr t ins.C.guard) <> 0)
                 ins.C.gsense)
       then () (* nullified in its slot *)
       else exec_entry st fr e t outcome
     done
   with I.Runtime_error m -> sim_error "runtime error: %s" m);
  (* cut in-flight latencies at the block boundary *)
  commit st fr max_int;
  st.p_top <- base;
  match !outcome with
  | Next l -> run_block st d regs pend l
  | Return v -> v
  | Fell_through -> sim_error "block fell through without a terminator"

and exec_entry st fr e t outcome =
  match e.ins.C.kind with
  | C.Ibin (o, dst, a, b) ->
      write st fr e t dst
        (I.eval_ibin o (operand st fr t a) (operand st fr t b))
  | C.Fbin (o, dst, a, b) ->
      write st fr e t dst
        (I.eval_fbin o (operand st fr t a) (operand st fr t b))
  | C.Un (o, dst, a) -> write st fr e t dst (I.eval_un o (operand st fr t a))
  | C.Move (dst, src) ->
      st.moves <- st.moves + 1;
      acct_move st e;
      write st fr e t dst (read st fr t src)
  | C.Load (dst, base, offset) ->
      let addr =
        I.to_int (operand st fr t base) + I.to_int (operand st fr t offset)
      in
      let r = M.find st.mem addr in
      if r < 0 then sim_error "wild load at 0x%x" addr;
      acct_access st e r;
      write st fr e t dst (M.get st.mem addr)
  | C.Store (src, base, offset) ->
      let addr =
        I.to_int (operand st fr t base) + I.to_int (operand st fr t offset)
      in
      let r = M.find st.mem addr in
      if r < 0 then sim_error "wild store at 0x%x" addr;
      acct_access st e r;
      (* stores commit at t + 1; loads are ordered >= t+1 by deps,
         so committing into memory immediately is equivalent *)
      M.set st.mem addr (operand st fr t src)
  | C.Addr (dst, a) -> write st fr e t dst a
  | C.Alloc (dst, size, site) ->
      let base = M.alloc st.mem ~site (I.to_int (operand st fr t size)) in
      write st fr e t dst (I.VInt base)
  | C.In (dst, index) ->
      let i = I.to_int (operand st fr t index) in
      if i < 0 || i >= Array.length st.input then
        sim_error "input index %d out of bounds" i;
      write st fr e t dst (I.VInt st.input.(i))
  | C.Out a -> st.outputs_rev <- operand st fr t a :: st.outputs_rev
  | C.Call (dst, callee, args) -> (
      let vals = List.map (operand st fr t) args in
      match exec_func st callee vals with
      | Some r -> if dst >= 0 then write st fr e t dst r
      | None ->
          if dst >= 0 then
            sim_error "call to %s returned no value"
              (Func.name (C.func st.fs callee)))
  | C.Jmp l -> outcome := Next l
  | C.Cbr (cond, if_true, if_false) ->
      let c = I.to_int (operand st fr t cond) in
      outcome := Next (if c <> 0 then if_true else if_false)
  | C.Ret r -> outcome := Return (Option.map (operand st fr t) r)

let totals st (a : acct) : Attrib.totals =
  let nclusters = Vliw_machine.num_clusters st.machine in
  let indexed arr =
    List.filter_map
      (fun i -> if arr.(i) > 0 then Some (M.obj st.mem i, arr.(i)) else None)
      (List.init (Array.length arr) Fun.id)
  in
  let link_moves =
    List.filter_map
      (fun l ->
        let n = a.ac_links.(l) in
        if n > 0 then Some ((l / nclusters, l mod nclusters), n) else None)
      (List.init (Array.length a.ac_links) Fun.id)
  in
  let nobjs = M.num_objs st.mem in
  let local = I.grow a.ac_local nobjs 0
  and remote = I.grow a.ac_remote nobjs 0 in
  {
    Attrib.t_cycles = st.cycles;
    t_categories = Array.copy a.ac_categories;
    t_moves = List.fold_left (fun acc (_, n) -> acc + n) 0 link_moves;
    t_link_moves = link_moves;
    t_obj_moves =
      indexed a.ac_obj_moves
      |> List.sort (fun (oa, na) (ob, nb) ->
             match compare nb na with 0 -> Data.compare_obj oa ob | c -> c);
    t_unattributed_moves = a.ac_unattributed;
    t_obj_access =
      List.filter_map
        (fun i ->
          if local.(i) + remote.(i) > 0 then
            Some
              ( M.obj st.mem i,
                { Attrib.acc_local = local.(i); acc_remote = remote.(i) } )
          else None)
        (List.init nobjs Fun.id)
      |> List.sort (fun (x, _) (y, _) -> Data.compare_obj x y);
  }

(** Simulate a clustered program on [input]. *)
let run ?(fuel = 5_000_000) ?(account = false) (c : Move_insert.clustered)
    ~(machine : Vliw_machine.t) ?(objects_of = fun _ -> Data.Obj_set.empty)
    ~input () : result =
  Telemetry.with_span "simulate" @@ fun () ->
  let prog = c.Move_insert.cprog in
  let fs = C.index_funcs prog in
  let nclusters = Vliw_machine.num_clusters machine in
  let st =
    {
      machine;
      assign = c.Move_insert.cassign;
      move_routes = c.Move_insert.move_routes;
      objects_of;
      mem = M.create prog;
      fs;
      funcs = Array.make (C.num_funcs fs) None;
      input;
      outputs_rev = [];
      cycles = 0;
      moves = 0;
      acct =
        (if account then
           Some
             {
               ac_categories = Array.make Attrib.num_categories 0;
               ac_links = Array.make (nclusters * nclusters) 0;
               ac_obj_moves = [||];
               ac_unattributed = 0;
               ac_local = [||];
               ac_remote = [||];
             }
         else None);
      fuel;
      p_reg = [||];
      p_val = [||];
      p_ready = [||];
      p_issued = [||];
      p_seq = [||];
      p_top = 0;
      seq = 0;
    }
  in
  let (_ : I.value option) =
    exec_func st (C.func_id fs (Func.name (Prog.main prog))) []
  in
  if Telemetry.is_enabled () then begin
    Telemetry.incr "sim.blocks_executed" ~by:(fuel - st.fuel);
    Telemetry.set_gauge "sim.cycles" (float st.cycles);
    Telemetry.set_gauge "sim.dynamic_moves" (float st.moves)
  end;
  let account =
    Option.map
      (fun a ->
        let totals = totals st a in
        (match Attrib.check_identity totals with
        | Some msg -> sim_error "%s" msg
        | None -> ());
        totals)
      st.acct
  in
  {
    outputs = List.rev st.outputs_rev;
    cycles = st.cycles;
    dynamic_moves = st.moves;
    account;
  }
