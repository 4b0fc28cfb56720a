(** Benchmark kernels: the Table I workloads.

    Each kernel carries a hand-built DFG for unroll factor 1 (matching
    the paper's published node/edge/RecMII statistics), an unroll
    specification from which the factor-2 variant is derived with
    {!Iced_dfg.Transform.unroll}, the paper's published statistics for
    both factors (so tests can pin them), and a data binding giving the
    DFG functional semantics against synthetic inputs. *)

open Iced_dfg

type domain = Embedded | Machine_learning | Hpc | Gcn | Lu

type table_stats = {
  nodes1 : int;
  edges1 : int;
  rec_mii1 : int;
  nodes2 : int;
  edges2 : int;
  rec_mii2 : int;
}
(** The six statistics columns of Table I. *)

type memo
(** Compute-once slots behind {!dfg_at} and {!stats_at}. *)

type t = {
  name : string;
  domain : domain;
  data : string;  (** Table I "Data" column, e.g. "1024" or "128^2" *)
  dfg : Graph.t;
  unroll_shared : int list;
      (** nodes instantiated once when unrolling (induction variables,
          constants, shared address math) *)
  serial_phis : int list;
      (** phis whose recurrence stays serial under unrolling, growing
          RecMII (spmv/gemm-style non-reassociable dependences); other
          phis split into parallel per-copy recurrences *)
  table : table_stats;
  binding : Iced_sim.Sim.binding;
  iterations : int;  (** loop trip count implied by the data size *)
  memo : memo;
      (** derived facts, filled on first use; build kernels with
          {!make} only, since a record copied with [{ k with dfg = ... }]
          would share the original's slots *)
}

val domain_to_string : domain -> string

val dfg_at : t -> factor:int -> Graph.t
(** [factor] 1 or 2: the DFG actually mapped.  @raise Invalid_argument
    otherwise.

    The factor-2 graph is unrolled at most once per kernel record and
    shared: every call returns the physically same graph, so the
    {!Iced_dfg.Analysis} memo, keyed on graph identity, also hits
    across calls.  The slot is an [Atomic] and safe to fill from
    several domains at once (a loser of the race returns the winner's
    graph).  It lives and dies with the record: kernels built on demand
    (e.g. [rand<n>x<seed>] from [Registry.by_name]) retain nothing once
    dropped. *)

val stats : Graph.t -> int * int * int
(** (nodes, edges, RecMII) of a DFG. *)

val stats_at : t -> factor:int -> int * int * int
(** [stats (dfg_at k ~factor)], computed at most once per kernel
    record and factor, with the same sharing and domain safety as
    {!dfg_at}.  @raise Invalid_argument on a factor other than 1 or
    2. *)

val make :
  name:string ->
  domain:domain ->
  data:string ->
  dfg:Graph.t ->
  ?unroll_shared:int list ->
  ?serial_phis:int list ->
  table:table_stats ->
  ?binding:Iced_sim.Sim.binding ->
  iterations:int ->
  unit ->
  t
(** Smart constructor; defaults: no shared nodes, no serial phis,
    zero binding. *)
