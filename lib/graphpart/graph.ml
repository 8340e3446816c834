(** Undirected weighted graphs with vector (multi-constraint) node
    weights, in CSR (compressed sparse row) form.

    This is the input format of the multilevel partitioner ([Partitioner]),
    our stand-in for METIS: the paper partitions its program-level graph
    with METIS using "multiple node weights" (Section 3.3.2).

    The adjacency is stored as three flat [int array]s — offsets,
    neighbor ids, edge weights — exactly like METIS's [xadj]/[adjncy]/
    [adjwgt].  Each row is sorted by neighbor id and contains no
    duplicates; the structure is symmetric (every edge appears in both
    endpoint rows with the same weight). *)

type t = {
  n : int;
  ncon : int;  (** number of node-weight constraints *)
  vwgt : int array array;  (** [vwgt.(v).(c)] = weight of [v] under [c] *)
  xadj : int array;  (** length [n + 1]; row [v] is [xadj.(v) .. xadj.(v+1) - 1] *)
  adjncy : int array;  (** neighbor ids, sorted within each row *)
  adjwgt : int array;  (** edge weights, parallel to [adjncy] *)
}

let num_nodes g = g.n
let num_constraints g = g.ncon
let node_weight g v c = g.vwgt.(v).(c)
let degree g v = g.xadj.(v + 1) - g.xadj.(v)
let adj_offsets g = g.xadj
let adj_targets g = g.adjncy
let adj_weights g = g.adjwgt

let iter_neighbors g v f =
  for i = g.xadj.(v) to g.xadj.(v + 1) - 1 do
    f g.adjncy.(i) g.adjwgt.(i)
  done

let neighbors g v =
  let acc = ref [] in
  for i = g.xadj.(v + 1) - 1 downto g.xadj.(v) do
    acc := (g.adjncy.(i), g.adjwgt.(i)) :: !acc
  done;
  !acc

(** Total weight under constraint [c]. *)
let total_weight g c =
  let s = ref 0 in
  for v = 0 to g.n - 1 do
    s := !s + g.vwgt.(v).(c)
  done;
  !s

let num_edges g = Array.length g.adjncy / 2

(** Sum of incident edge weights of the heaviest node — the gain range
    of an FM refinement pass. *)
let max_weighted_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    let s = ref 0 in
    for i = g.xadj.(v) to g.xadj.(v + 1) - 1 do
      s := !s + g.adjwgt.(i)
    done;
    if !s > !best then best := !s
  done;
  !best

(* sort one CSR row (ids and weights in lockstep) by neighbor id;
   insertion sort — rows are short and often already sorted *)
let sort_row adjncy adjwgt lo hi =
  for i = lo + 1 to hi - 1 do
    let id = adjncy.(i) and w = adjwgt.(i) in
    let j = ref (i - 1) in
    while !j >= lo && adjncy.(!j) > id do
      adjncy.(!j + 1) <- adjncy.(!j);
      adjwgt.(!j + 1) <- adjwgt.(!j);
      decr j
    done;
    adjncy.(!j + 1) <- id;
    adjwgt.(!j + 1) <- w
  done

(** Build a graph.  [edges] are (u, v, w) triples with [u <> v]; parallel
    edges are merged by summing weights.  Node weights must all have
    length [ncon]. *)
let create ~ncon ~weights ~edges =
  let n = Array.length weights in
  Array.iteri
    (fun v w ->
      if Array.length w <> ncon then
        invalid_arg
          (Fmt.str "Graph.create: node %d has %d weights, expected %d" v
             (Array.length w) ncon))
    weights;
  let tbl = Hashtbl.create (List.length edges * 2) in
  List.iter
    (fun (u, v, w) ->
      if u = v then invalid_arg "Graph.create: self edge";
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.create: edge endpoint out of range";
      if w < 0 then invalid_arg "Graph.create: negative edge weight";
      let key = if u < v then (u, v) else (v, u) in
      Hashtbl.replace tbl key
        (w + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
    edges;
  let xadj = Array.make (n + 1) 0 in
  Hashtbl.iter
    (fun (u, v) _ ->
      xadj.(u + 1) <- xadj.(u + 1) + 1;
      xadj.(v + 1) <- xadj.(v + 1) + 1)
    tbl;
  for v = 1 to n do
    xadj.(v) <- xadj.(v) + xadj.(v - 1)
  done;
  let m2 = xadj.(n) in
  let adjncy = Array.make m2 0 and adjwgt = Array.make m2 0 in
  let fill = Array.make n 0 in
  Hashtbl.iter
    (fun (u, v) w ->
      let iu = xadj.(u) + fill.(u) and iv = xadj.(v) + fill.(v) in
      adjncy.(iu) <- v;
      adjwgt.(iu) <- w;
      adjncy.(iv) <- u;
      adjwgt.(iv) <- w;
      fill.(u) <- fill.(u) + 1;
      fill.(v) <- fill.(v) + 1)
    tbl;
  for v = 0 to n - 1 do
    sort_row adjncy adjwgt xadj.(v) xadj.(v + 1)
  done;
  { n; ncon; vwgt = Array.map Array.copy weights; xadj; adjncy; adjwgt }

(** Weight of edges crossing the partition. *)
let edge_cut g (part : int array) =
  let cut = ref 0 in
  for v = 0 to g.n - 1 do
    let pv = part.(v) in
    for i = g.xadj.(v) to g.xadj.(v + 1) - 1 do
      let u = g.adjncy.(i) in
      if v < u && pv <> part.(u) then cut := !cut + g.adjwgt.(i)
    done
  done;
  !cut

(** Per-part weight sums under constraint [c]. *)
let part_weights g (part : int array) ~nparts c =
  let w = Array.make nparts 0 in
  for v = 0 to g.n - 1 do
    w.(part.(v)) <- w.(part.(v)) + g.vwgt.(v).(c)
  done;
  w

(* ------------------------------------------------------------------ *)
(* Derived graphs, built straight into CSR (no intermediate edge lists
   or per-level Hashtbl dedup — the coarsening hot path).              *)

(** Contract [g] along a node map: [coarse_of.(v)] is the coarse node of
    every fine [v], with ids in [0 .. num_coarse - 1].  Node weights are
    summed per coarse node; parallel fine edges between two coarse nodes
    merge by summing weights; intra-coarse-node edges vanish. *)
let contract g ~(coarse_of : int array) ~num_coarse =
  let cn = num_coarse in
  (* coarse -> fine members, by counting sort (keeps fine order) *)
  let cnt = Array.make (cn + 1) 0 in
  for v = 0 to g.n - 1 do
    cnt.(coarse_of.(v) + 1) <- cnt.(coarse_of.(v) + 1) + 1
  done;
  for cv = 1 to cn do
    cnt.(cv) <- cnt.(cv) + cnt.(cv - 1)
  done;
  let members = Array.make g.n 0 in
  let fill = Array.copy cnt in
  for v = 0 to g.n - 1 do
    let cv = coarse_of.(v) in
    members.(fill.(cv)) <- v;
    fill.(cv) <- fill.(cv) + 1
  done;
  let weights = Array.init cn (fun _ -> Array.make g.ncon 0) in
  for v = 0 to g.n - 1 do
    let cv = coarse_of.(v) in
    for c = 0 to g.ncon - 1 do
      weights.(cv).(c) <- weights.(cv).(c) + g.vwgt.(v).(c)
    done
  done;
  (* coarse adjacency: one dense marker array reused across rows *)
  let xadj = Array.make (cn + 1) 0 in
  let cap = Array.length g.adjncy in
  let adjncy = Array.make cap 0 and adjwgt = Array.make cap 0 in
  let mark = Array.make cn (-1) in
  let pos = ref 0 in
  for cv = 0 to cn - 1 do
    let start = !pos in
    for k = cnt.(cv) to cnt.(cv + 1) - 1 do
      let v = members.(k) in
      for i = g.xadj.(v) to g.xadj.(v + 1) - 1 do
        let cu = coarse_of.(g.adjncy.(i)) in
        if cu <> cv then
          if mark.(cu) >= start && adjncy.(mark.(cu)) = cu then
            adjwgt.(mark.(cu)) <- adjwgt.(mark.(cu)) + g.adjwgt.(i)
          else begin
            mark.(cu) <- !pos;
            adjncy.(!pos) <- cu;
            adjwgt.(!pos) <- g.adjwgt.(i);
            incr pos
          end
      done
    done;
    sort_row adjncy adjwgt start !pos;
    xadj.(cv + 1) <- !pos
  done;
  {
    n = cn;
    ncon = g.ncon;
    vwgt = weights;
    xadj;
    adjncy = Array.sub adjncy 0 !pos;
    adjwgt = Array.sub adjwgt 0 !pos;
  }

(** Induced subgraph on [ids] (strictly increasing fine node ids); node
    [i] of the result is [ids.(i)].  Edges to nodes outside [ids] are
    dropped. *)
let induce g (ids : int array) =
  let k = Array.length ids in
  Array.iteri
    (fun i v ->
      if v < 0 || v >= g.n || (i > 0 && ids.(i - 1) >= v) then
        invalid_arg "Graph.induce: ids must be strictly increasing node ids")
    ids;
  let index_of = Array.make g.n (-1) in
  Array.iteri (fun i v -> index_of.(v) <- i) ids;
  let xadj = Array.make (k + 1) 0 in
  Array.iteri
    (fun i v ->
      let d = ref 0 in
      for j = g.xadj.(v) to g.xadj.(v + 1) - 1 do
        if index_of.(g.adjncy.(j)) >= 0 then incr d
      done;
      xadj.(i + 1) <- xadj.(i) + !d)
    ids;
  let m2 = xadj.(k) in
  let adjncy = Array.make m2 0 and adjwgt = Array.make m2 0 in
  Array.iteri
    (fun i v ->
      let p = ref xadj.(i) in
      (* fine rows are sorted and [ids] is increasing, so induced rows
         stay sorted *)
      for j = g.xadj.(v) to g.xadj.(v + 1) - 1 do
        let u = index_of.(g.adjncy.(j)) in
        if u >= 0 then begin
          adjncy.(!p) <- u;
          adjwgt.(!p) <- g.adjwgt.(j);
          incr p
        end
      done)
    ids;
  let weights = Array.map (fun v -> Array.copy g.vwgt.(v)) ids in
  { n = k; ncon = g.ncon; vwgt = weights; xadj; adjncy; adjwgt }

let pp ppf g =
  Fmt.pf ppf "@[<v>graph: %d nodes, %d edges, %d constraint(s)@]" g.n
    (num_edges g) g.ncon
