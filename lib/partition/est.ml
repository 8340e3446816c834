(** Schedule-length estimation for RHOP (paper Section 3.4).

    RHOP's defining feature is steering cluster assignment with cheap
    schedule estimates instead of running the scheduler.  For a candidate
    cluster assignment of one block the estimate combines:

    - a resource bound: per cluster, ops of each FU kind divided by the
      unit count, and intercluster moves charged per link of their
      route against per-link bandwidth (on the bus: total moves over
      bus bandwidth, the seed model);
    - a dependence bound: the critical path where every cut register-flow
      edge is stretched by the route latency between the two clusters
      (hops times move latency — plain move latency on the bus);
    - a cross-block term: uses of values homed on another cluster (and
      loop-carried couplings) will force a move in the producer block;
      they are charged [xmove_weight] cycles each, additively.

    The final cost is

    {v 10_000 * (max (res, bus, dep) + xmove_weight * xmoves)
      + 100 * (graded + bus) + moves v}

    so the bound dominates, the graded resource pressure and link usage
    break its plateaus, and the in-block move count breaks the
    remaining ties.

    The estimate is RHOP's innermost loop — it runs once per candidate
    move per refinement pass — so it is incremental.  A [state] keeps,
    for the standing assignment, every term but [dep] up to date as
    nodes move (per-(cluster, kind) usage; per-(producer, consumer
    cluster) flow-edge multiplicities, from which the move count and
    per-link usage follow; the pin and coupling charge), and keeps the
    committed dependence levels with their prefix maxima, so [dep] is
    recomputed only from the lowest moved node onward.  Dependence
    edges always point from a lower node index to a higher one, so
    nothing below that index can change.  Everything iterable is
    precomputed into flat arrays at [make] time.  A [t] is immutable;
    a [state] is single-threaded, like the RHOP pass that owns it. *)

module M = Vliw_machine
module D = Vliw_sched.Deps

type t = {
  nclusters : int;
  move_latency : int;
  moves_per_cycle : int;
  (* interconnect geometry, precomputed per ordered cluster pair
     [(a * nclusters) + b]: hop distance, and the route's link ids in
     CSR form (the per-link resource bound walks them) *)
  hops : int array;
  route_off : int array;
  route_link : int array;
  nlink_slots : int;
  n : int;
  fu_of : int array;  (** FU kind index per node *)
  caps : int array;  (** FU count per (cluster, kind), [c * nk + k] *)
  (* predecessor lists in CSR form; entry [j] of node [i]'s row is
     predecessor [pred_node.(j)] at latency [pred_lat.(j)], flagged in
     [pred_flow] when the edge is a register flow edge (the only kind
     stretched by cut-crossing) *)
  pred_off : int array;
  pred_node : int array;
  pred_lat : int array;
  pred_flow : bool array;
  (* producers of each node's flow edges in CSR form, one entry per
     flow edge (a value used twice appears twice) *)
  fin_off : int array;
  fin_node : int array;
  (* per-node pins: home cluster of each live-in value the node uses *)
  pin_off : int array;
  pin_home : int array;
  (* per-node couplings (loop-carried same-register use/def pairs): the
     other endpoint, and whether this node is the use *)
  cpl_off : int array;
  cpl_other : int array;
  cpl_is_use : bool array;
  tail : int array;
      (** a node's contribution past its level: full latency for nodes
          defining a live-out value (live-out drain, like
          [List_sched]), issue only otherwise *)
  cp0 : int;  (** the dependence bound with no edge stretched *)
  xmove_weight : int;
}

(* CSR rows keyed by node: [iter add] must call [add node payload] for
   every entry, in the same order both times it is run. *)
let csr n ~dummy (iter : (int -> 'a -> unit) -> unit) =
  let off = Array.make (n + 1) 0 in
  iter (fun i _ -> off.(i + 1) <- off.(i + 1) + 1);
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i + 1) + off.(i)
  done;
  let data = Array.make (max off.(n) 1) dummy in
  let fill = Array.sub off 0 n in
  iter (fun i x ->
      data.(fill.(i)) <- x;
      fill.(i) <- fill.(i) + 1);
  (off, data)

let make ~machine ~deps ~pins ~couplings ~live_out ~xmove_weight =
  let n = D.num_ops deps in
  let nclusters = M.num_clusters machine in
  let nk = M.fu_kind_count in
  let fu_of =
    Array.init n (fun i -> M.fu_kind_index (Vliw_ir.Op.fu_kind (D.op deps i)))
  in
  let caps = Array.make (nclusters * nk) 0 in
  for c = 0 to nclusters - 1 do
    List.iter
      (fun k ->
        caps.((c * nk) + M.fu_kind_index k) <-
          M.fu_count (M.cluster_of machine c) k)
      M.all_fu_kinds
  done;
  let flow_edges = D.flow_edges deps in
  let is_flow = Hashtbl.create (2 * n) in
  List.iter (fun (d, u, _) -> Hashtbl.replace is_flow (d, u) ()) flow_edges;
  let fin_off, fin_node =
    csr n ~dummy:0 (fun add -> List.iter (fun (d, u, _) -> add u d) flow_edges)
  in
  let pred_off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    pred_off.(i + 1) <- pred_off.(i) + List.length (D.preds deps i)
  done;
  let npred = pred_off.(n) in
  let pred_node = Array.make npred 0
  and pred_lat = Array.make npred 0
  and pred_flow = Array.make npred false in
  for i = 0 to n - 1 do
    let j = ref pred_off.(i) in
    List.iter
      (fun (p, l) ->
        if p >= i then invalid_arg "Est.make: dependence edge against order";
        pred_node.(!j) <- p;
        pred_lat.(!j) <- l;
        pred_flow.(!j) <- Hashtbl.mem is_flow (p, i);
        incr j)
      (D.preds deps i)
  done;
  let pin_off, pin_home =
    csr n ~dummy:0 (fun add -> List.iter (fun (i, h) -> add i h) pins)
  in
  let cpl_off, cpl_other =
    csr n ~dummy:0 (fun add ->
        List.iter
          (fun (u, d) ->
            add u d;
            add d u)
          couplings)
  in
  let _, cpl_is_use =
    csr n ~dummy:false (fun add ->
        List.iter
          (fun (u, d) ->
            add u true;
            add d false)
          couplings)
  in
  let lat = Array.init n (D.op_latency deps) in
  let tail =
    Array.init n (fun i ->
        if
          List.exists
            (fun r -> Vliw_ir.Reg.Set.mem r live_out)
            (Vliw_ir.Op.defs (D.op deps i))
        then lat.(i)
        else 1)
  in
  let cp0 =
    let level = Array.make n 0 and cp = ref 0 in
    for i = 0 to n - 1 do
      for j = pred_off.(i) to pred_off.(i + 1) - 1 do
        level.(i) <- max level.(i) (level.(pred_node.(j)) + pred_lat.(j))
      done;
      cp := max !cp (level.(i) + tail.(i))
    done;
    !cp
  in
  let npairs = nclusters * nclusters in
  let hops = Array.make npairs 0 in
  let routes = Array.make npairs [] in
  for src = 0 to nclusters - 1 do
    for dst = 0 to nclusters - 1 do
      let p = (src * nclusters) + dst in
      hops.(p) <- M.route_hops machine ~src ~dst;
      routes.(p) <- M.route_links machine ~src ~dst
    done
  done;
  let route_off, route_link =
    csr npairs ~dummy:0 (fun add ->
        Array.iteri (fun p links -> List.iter (add p) links) routes)
  in
  {
    nclusters;
    move_latency = M.move_latency machine;
    moves_per_cycle = M.moves_per_cycle machine;
    hops;
    route_off;
    route_link;
    nlink_slots = M.num_link_slots machine;
    n;
    fu_of;
    caps;
    pred_off;
    pred_node;
    pred_lat;
    pred_flow;
    fin_off;
    fin_node;
    pin_off;
    pin_home;
    cpl_off;
    cpl_other;
    cpl_is_use;
    tail;
    cp0;
    xmove_weight;
  }

(* ------------------------------------------------------------------ *)
(* Incremental state                                                   *)

type state = {
  t : t;
  cluster : int array;  (** the standing assignment (owned) *)
  usage : int array;  (** ops per (cluster, kind), [c * nk + k] *)
  mult : int array;
      (** flow edges per (producer, consumer cluster), [d * nclusters + c];
          a move exists for each nonzero entry off the producer's
          cluster *)
  link_usage : int array;  (** moves routed over each link *)
  mutable moves : int;
  mutable xmoves : int;  (** hop-weighted pin and coupling charge *)
  (* dependence levels.  [clevel]/[cpref] hold the committed
     assignment's levels and prefix maxima ([cpref.(i)] = max over
     [j < i] of [level j + tail j]); [level]/[pref] equal them below
     [dirty] and are scratch from [dirty] on. *)
  committed : int array;  (** clusters at the last commit *)
  clevel : int array;
  cpref : int array;
  level : int array;
  pref : int array;
  mutable dirty : int;  (** lowest node moved since the last commit *)
  mutable ndiff : int;  (** nodes off their committed cluster *)
  mutable version : int;  (** bumped by every effective move *)
  mutable pass_version : int;  (** [version] of the last dependence pass *)
  mutable dep_nodes : int;
}

(* Relax levels from node [from] onward into [level]/[pref] for the
   current assignment and return the dependence bound. *)
let dep_pass st ~from =
  let t = st.t in
  let cluster = st.cluster and level = st.level and pref = st.pref in
  let ml = t.move_latency and ncl = t.nclusters in
  let dep = ref pref.(from) in
  for i = from to t.n - 1 do
    let ci = cluster.(i) in
    let li = ref 0 in
    for j = t.pred_off.(i) to t.pred_off.(i + 1) - 1 do
      let p = t.pred_node.(j) in
      let cp = cluster.(p) in
      let eff =
        if t.pred_flow.(j) && cp <> ci then
          t.pred_lat.(j) + (ml * t.hops.((cp * ncl) + ci))
        else t.pred_lat.(j)
      in
      if level.(p) + eff > !li then li := level.(p) + eff
    done;
    level.(i) <- !li;
    if !li + t.tail.(i) > !dep then dep := !li + t.tail.(i);
    pref.(i + 1) <- !dep
  done;
  st.dep_nodes <- st.dep_nodes + (t.n - from);
  st.pass_version <- st.version;
  !dep

(* One more (or one fewer, [delta] = -1) move from [src] to [dst]:
   every link of its route carries it. *)
let add_move st src dst delta =
  let t = st.t in
  st.moves <- st.moves + delta;
  let p = (src * t.nclusters) + dst in
  for j = t.route_off.(p) to t.route_off.(p + 1) - 1 do
    let l = t.route_link.(j) in
    st.link_usage.(l) <- st.link_usage.(l) + delta
  done

(* Cross-block charge of node [i]'s pins with [i] on cluster [c]. *)
let pin_charge t i c =
  let x = ref 0 in
  for j = t.pin_off.(i) to t.pin_off.(i + 1) - 1 do
    let h = t.pin_home.(j) in
    if c <> h then x := !x + t.hops.((h * t.nclusters) + c)
  done;
  !x

(* Charge of node [i]'s couplings with [i] on cluster [c] and the other
   endpoints where they stand.  Summed over all nodes this counts every
   coupling twice, once from each endpoint. *)
let cpl_charge st i c =
  let t = st.t in
  let ncl = t.nclusters in
  let x = ref 0 in
  for j = t.cpl_off.(i) to t.cpl_off.(i + 1) - 1 do
    let o = st.cluster.(t.cpl_other.(j)) in
    if o <> c then
      (* charged from the def's cluster to the use's *)
      x :=
        !x
        + if t.cpl_is_use.(j) then t.hops.((o * ncl) + c)
          else t.hops.((c * ncl) + o)
  done;
  !x

let move st i c =
  let a = st.cluster.(i) in
  if a <> c then begin
    let t = st.t in
    let ncl = t.nclusters and nk = M.fu_kind_count in
    let k = t.fu_of.(i) in
    st.usage.((a * nk) + k) <- st.usage.((a * nk) + k) - 1;
    st.usage.((c * nk) + k) <- st.usage.((c * nk) + k) + 1;
    st.xmoves <-
      st.xmoves - pin_charge t i a - cpl_charge st i a + pin_charge t i c
      + cpl_charge st i c;
    (* as a consumer: each flow edge now lands on [c] instead of [a] *)
    let mult = st.mult in
    for j = t.fin_off.(i) to t.fin_off.(i + 1) - 1 do
      let d = t.fin_node.(j) in
      let cd = st.cluster.(d) in
      let row = d * ncl in
      mult.(row + a) <- mult.(row + a) - 1;
      if mult.(row + a) = 0 && a <> cd then add_move st cd a (-1);
      mult.(row + c) <- mult.(row + c) + 1;
      if mult.(row + c) = 1 && c <> cd then add_move st cd c 1
    done;
    (* as a producer: its moves now leave from [c] instead of [a] *)
    let row = i * ncl in
    for cu = 0 to ncl - 1 do
      if mult.(row + cu) > 0 then begin
        if cu <> a then add_move st a cu (-1);
        if cu <> c then add_move st c cu 1
      end
    done;
    st.cluster.(i) <- c;
    if a = st.committed.(i) then st.ndiff <- st.ndiff + 1
    else if c = st.committed.(i) then st.ndiff <- st.ndiff - 1;
    if i < st.dirty then st.dirty <- i;
    st.version <- st.version + 1
  end

let commit st =
  let n = st.t.n and from = st.dirty in
  if st.ndiff = 0 then begin
    (* back where it started: drop whatever the passes left as scratch *)
    Array.blit st.clevel from st.level from (n - from);
    Array.blit st.cpref (from + 1) st.pref (from + 1) (n - from)
  end
  else begin
    if st.pass_version <> st.version then ignore (dep_pass st ~from);
    Array.blit st.level from st.clevel from (n - from);
    Array.blit st.pref (from + 1) st.cpref (from + 1) (n - from);
    Array.blit st.cluster 0 st.committed 0 n;
    st.ndiff <- 0
  end;
  st.dirty <- n

let state t (cluster : int array) =
  let n = t.n and ncl = t.nclusters and nk = M.fu_kind_count in
  let st =
    {
      t;
      cluster;
      usage = Array.make (ncl * nk) 0;
      mult = Array.make (max (n * ncl) 1) 0;
      link_usage = Array.make t.nlink_slots 0;
      moves = 0;
      xmoves = 0;
      committed = Array.copy cluster;
      clevel = Array.make (max n 1) 0;
      cpref = Array.make (n + 1) 0;
      level = Array.make (max n 1) 0;
      pref = Array.make (n + 1) 0;
      dirty = 0;
      ndiff = 0;
      version = 0;
      pass_version = -1;
      dep_nodes = 0;
    }
  in
  for i = 0 to n - 1 do
    let idx = (cluster.(i) * nk) + t.fu_of.(i) in
    st.usage.(idx) <- st.usage.(idx) + 1;
    for j = t.fin_off.(i) to t.fin_off.(i + 1) - 1 do
      let idx = (t.fin_node.(j) * ncl) + cluster.(i) in
      st.mult.(idx) <- st.mult.(idx) + 1
    done;
    st.xmoves <- st.xmoves + pin_charge t i cluster.(i)
  done;
  let cpl_total = ref 0 in
  for i = 0 to n - 1 do
    cpl_total := !cpl_total + cpl_charge st i cluster.(i);
    for cu = 0 to ncl - 1 do
      if st.mult.((i * ncl) + cu) > 0 && cu <> cluster.(i) then
        add_move st cluster.(i) cu 1
    done
  done;
  st.xmoves <- st.xmoves + (!cpl_total / 2);
  ignore (dep_pass st ~from:0);
  Array.blit st.level 0 st.clevel 0 n;
  Array.blit st.pref 0 st.cpref 0 (n + 1);
  st.dirty <- n;
  st

let cluster st i = st.cluster.(i)
let dep_nodes st = st.dep_nodes

let dep_bound st =
  if st.dirty = st.t.n then st.pref.(st.t.n) else dep_pass st ~from:st.dirty

(* The one cost formula, over the incremental terms and a dependence
   bound [dep]. *)
let combine st ~dep =
  let t = st.t in
  let nclusters = t.nclusters and nk = M.fu_kind_count in
  (* resource bound, and [graded]: per-FU-kind worst-cluster pressure,
     summed.  Unlike the max bound it decreases a little with every op
     moved off the binding cluster, giving hill-climbing refinement a
     gradient across the plateaus of the max. *)
  let res = ref 0 and graded = ref 0 in
  for k = 0 to nk - 1 do
    let worst = ref 0 in
    for c = 0 to nclusters - 1 do
      let u = st.usage.((c * nk) + k) in
      if u > 0 then begin
        let cap = t.caps.((c * nk) + k) in
        let v = if cap = 0 then 1_000_000 else (u + cap - 1) / cap in
        if v > !worst then worst := v
      end
    done;
    if !worst > !res then res := !worst;
    graded := !graded + !worst
  done;
  (* per-link bandwidth bound — on the bus this is
     ceil(moves / moves_per_cycle) *)
  let bus = ref 0 in
  for l = 0 to t.nlink_slots - 1 do
    let u = st.link_usage.(l) in
    if u > 0 then begin
      let v = (u + t.moves_per_cycle - 1) / t.moves_per_cycle in
      if v > !bus then bus := v
    end
  done;
  let bus = !bus in
  let bound = max !res (max bus dep) in
  (10_000 * (bound + (t.xmove_weight * st.xmoves)))
  + (100 * (!graded + bus))
  + st.moves

let lower_bound st = combine st ~dep:(max st.t.cp0 st.pref.(st.dirty))
let cost_of st = combine st ~dep:(dep_bound st)
let cost t cluster = cost_of (state t cluster)
