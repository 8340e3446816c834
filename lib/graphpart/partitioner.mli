(** Multilevel multi-constraint graph bisection (METIS stand-in):
    heavy-edge-matching coarsening, greedy-growing initial bisection,
    gain-bucket Fiduccia-Mattheyses refinement with rollback at every
    uncoarsening level.  Deterministic for a given seed.  See
    [docs/partitioner.md] for the pipeline and complexity. *)

type config = {
  imbalance : float array;
      (** per-constraint balance tolerance, e.g. 0.1 = 10% *)
  targets : float array option;
      (** per-constraint share of part 0 (default 0.5 everywhere); for
          machines with asymmetric memories or datapaths *)
  seed : int;
  coarsen_until : int;  (** stop coarsening below this many nodes *)
  initial_tries : int;  (** greedy-growing attempts on the coarsest graph *)
  fm_max_bad_moves : int;  (** FM hill-climbing patience *)
  starts : int;
      (** independent multilevel starts (different coarsening
          tie-breaks); the best finest-level result wins *)
  refine_cycles : int;
      (** extra restricted V-cycles after the first multilevel pass;
          each re-coarsens along the current partition and refines again
          from the coarsest level up, and never worsens the
          ([infeasibility], [cut]) order *)
}

val default_config : ncon:int -> config

(** Bisect a graph; returns a 0/1 part per node.  Balance caps apply per
    constraint; when exact feasibility is impossible (bin-packing), the
    result is as close as FM gets.  Deterministic: the result depends
    only on [config] and the graph. *)
val bisect : ?config:config -> Graph.t -> int array

(** Recursive bisection into a power-of-two number of parts. *)
val kway : ?config:config -> Graph.t -> nparts:int -> int array

(** One FM refinement stage on an existing bisection, in place: up to
    [passes] gain-bucket passes with best-prefix rollback.  Never makes
    the partition worse under the ([infeasibility], [cut]) lexicographic
    order.  Exposed for tests and benchmarks. *)
val fm_refine : ?passes:int -> config -> Graph.t -> int array -> unit

(** (infeasibility, cut) of a bisection under a configuration —
    lexicographically smaller is better, (0, _) is feasible.  Exposed
    for tests and benchmarks. *)
val evaluate : config -> Graph.t -> int array -> int * int
