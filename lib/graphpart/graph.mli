(** Undirected weighted graphs with vector (multi-constraint) node
    weights — the input format of the multilevel partitioner, our METIS
    stand-in.

    Internally stored as CSR (compressed sparse row): three flat
    [int array]s of offsets, neighbor ids and edge weights, like METIS's
    [xadj]/[adjncy]/[adjwgt].  Rows are sorted by neighbor id, hold no
    duplicates, and the structure is symmetric. *)

type t

val num_nodes : t -> int
val num_constraints : t -> int

(** [node_weight g v c] is node [v]'s weight under constraint [c]. *)
val node_weight : t -> int -> int -> int

(** Number of neighbors of a node. *)
val degree : t -> int -> int

(** [iter_neighbors g v f] calls [f u w] for every neighbor [u] of [v]
    (ascending [u]) without allocating. *)
val iter_neighbors : t -> int -> (int -> int -> unit) -> unit

(** Neighbors of a node with edge weights, ascending by id; symmetric.
    Allocates a fresh list — hot paths should use [iter_neighbors] or
    the raw CSR arrays. *)
val neighbors : t -> int -> (int * int) list

(** Raw CSR arrays — [adj_offsets g] has length [num_nodes g + 1]; row
    [v] of [adj_targets]/[adj_weights] spans indices
    [adj_offsets.(v) .. adj_offsets.(v+1) - 1].  The returned arrays are
    the graph's own storage: callers must not mutate them. *)
val adj_offsets : t -> int array

val adj_targets : t -> int array
val adj_weights : t -> int array

val total_weight : t -> int -> int
val num_edges : t -> int

(** Sum of incident edge weights of the heaviest node (the FM gain
    range). *)
val max_weighted_degree : t -> int

(** Build a graph from per-node weight vectors (all of length [ncon])
    and [(u, v, w)] edges.  Parallel edges are merged by summing their
    weights; self edges and out-of-range endpoints are rejected. *)
val create :
  ncon:int -> weights:int array array -> edges:(int * int * int) list -> t

(** Total weight of edges crossing the partition. *)
val edge_cut : t -> int array -> int

(** Per-part weight sums under one constraint. *)
val part_weights : t -> int array -> nparts:int -> int -> int array

(** [contract g ~coarse_of ~num_coarse] merges nodes mapping to the same
    coarse id ([0 .. num_coarse - 1]): node weights sum, parallel edges
    merge, intra-coarse edges vanish.  Builds CSR directly — the
    coarsening hot path. *)
val contract : t -> coarse_of:int array -> num_coarse:int -> t

(** [induce g ids] is the subgraph on [ids] (strictly increasing node
    ids); node [i] of the result is [ids.(i)]. *)
val induce : t -> int array -> t

val pp : t Fmt.t
