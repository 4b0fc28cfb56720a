(** DFG analyses used by the mapper: recurrence cycles, minimum
    initiation intervals, schedule levels, and critical nodes. *)

type cycle = {
  members : int list;  (** node ids along the cycle, in traversal order *)
  length : int;  (** total latency around the cycle *)
  distance : int;  (** total loop-carried distance around the cycle *)
}

val recurrence_cycles : ?max_cycles:int -> Graph.t -> cycle list
(** Enumerate elementary cycles of the DFG.  Every cycle crosses at
    least one loop-carried edge (the intra-iteration subgraph is
    acyclic).  Enumeration is capped at [max_cycles] (default 4096) to
    bound pathological graphs; the kernels in this repository are far
    below the cap.

    The result is memoized: the enumeration runs once per graph, and
    {!rec_mii}, {!min_ii}, {!critical_nodes} and {!secondary_cycle_nodes}
    answer from the same run.  The memo is keyed on the physical
    identity of the graph (and [max_cycles]), which is sound because a
    [Graph.t] is never mutated; a structurally equal copy is a separate
    entry.  Each domain keeps its own memo of the 16 most recently used
    graphs, so it never grows with the number of graphs a process sees
    and needs no lock.  Repeated calls on a listed graph return the
    physically same list. *)

val enumerate_cycles : ?max_cycles:int -> Graph.t -> cycle list
(** {!recurrence_cycles} without the memo: a fresh enumeration on
    every call.  For tests and measurements. *)

val cycle_mii : cycle -> int
(** ceil(length / distance): the II lower bound this cycle imposes. *)

val rec_mii : Graph.t -> int
(** Recurrence-constrained minimum II: max over recurrence cycles of
    [cycle_mii], at least 1.  Memoized with {!recurrence_cycles}. *)

val res_mii : Graph.t -> tiles:int -> int
(** Resource-constrained minimum II: ceil(#nodes / #tiles), at least 1.
    @raise Invalid_argument if [tiles <= 0]. *)

val min_ii : Graph.t -> tiles:int -> int
(** max(RecMII, ResMII). *)

val critical_nodes : Graph.t -> int list
(** Nodes on a recurrence cycle whose [cycle_mii] equals the RecMII —
    the nodes Algorithm 1 pins at the [normal] DVFS level and that the
    mapper must not slow down.  Memoized with {!recurrence_cycles}. *)

val secondary_cycle_nodes : Graph.t -> int list
(** Nodes on recurrence cycles of length at most half the longest
    cycle's length (and not critical) — labeled [relax] by
    Algorithm 1.  Memoized with {!recurrence_cycles}. *)

val asap : Graph.t -> (int * int) list
(** ASAP level per node over the distance-0 subgraph (sources at 0).
    @raise Invalid_argument if the intra subgraph is cyclic. *)

val alap : Graph.t -> (int * int) list
(** ALAP level per node (same depth scale as [asap]). *)

val depth : Graph.t -> int
(** Longest distance-0 path length in nodes (ASAP max + 1); 0 for the
    empty graph. *)
