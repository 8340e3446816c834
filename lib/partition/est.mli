(** Schedule-length estimation for RHOP (paper Section 3.4): resource,
    bus and stretched-critical-path bounds for a candidate cluster
    assignment of one block, plus a graded resource term that gives
    hill-climbing refinement a gradient, and an additive charge for
    cross-block move pressure.  Lower cost is better:

    {v 10_000 * (max (res, bus, dep) + xmove_weight * xmoves)
      + 100 * (graded + bus) + moves v}

    The estimate is maintained incrementally over a standing assignment
    ([state]), so RHOP pays per candidate only for what the candidate
    changes; see [docs/partitioner.md] ("RHOP estimator"). *)

type t
(** The per-block precomputation: immutable once made. *)

val make :
  machine:Vliw_machine.t ->
  deps:Vliw_sched.Deps.t ->
  pins:(int * int) list ->
  couplings:(int * int) list ->
  live_out:Vliw_ir.Reg.Set.t ->
  xmove_weight:int ->
  t

val cost : t -> int array -> int
(** [cost t cluster] is the estimate of the assignment [cluster] (node
    index to cluster), computed from scratch: [cost_of (state t
    cluster)]. *)

(** {1 Incremental state} *)

type state
(** A standing assignment with every cost term kept up to date as nodes
    move, and the dependence levels of the last committed assignment.
    Single-threaded. *)

val state : t -> int array -> state
(** A fresh state over [cluster], which it takes over: mutate the array
    only through [move] from then on.  The assignment is committed. *)

val cluster : state -> int -> int

val move : state -> int -> int -> unit
(** [move st i c] puts node [i] on cluster [c], updating FU usage,
    flow-edge multiplicities, the move count, per-link usage and the
    cross-block charge in time proportional to [i]'s flow edges, pins
    and couplings (plus the cluster count).  The dependence bound is
    left to [cost_of]. *)

val lower_bound : state -> int
(** The cost formula with the dependence bound replaced by the larger
    of the block's unstretched critical path and the committed levels
    below the lowest node moved since the last [commit].  Never exceeds
    [cost_of], and costs no dependence pass: a candidate whose lower
    bound already reaches the best cost so far can be rejected
    unevaluated. *)

val cost_of : state -> int
(** The exact estimate of the current assignment — always equal to
    [cost] of a copy of it.  Relaxes dependence levels only from the
    lowest node moved since the last [commit] onward. *)

val dep_bound : state -> int
(** The stretched critical path of the current assignment, computed the
    same way as in [cost_of]. *)

val commit : state -> unit
(** Make the current assignment the base for later dependence passes.
    Runs no dependence pass when every node is back on its committed
    cluster, nor when the last pass was of the current assignment. *)

val dep_nodes : state -> int
(** Nodes relaxed by dependence passes over the state's lifetime. *)
