(** Validity checkers for all spanner variants of the paper.

    Following Section 1.5: an edge [{u,v}] is covered by an edge set
    [S] if [S] contains a path of length at most [k] between [u] and
    [v]; a k-spanner of [G] covers every edge of [G]; a k-spanner of a
    subgraph [G' ⊆ G] is a subset of [G]'s edges covering every edge
    of [G']. For directed graphs the path must be directed from [u]
    to [v]. *)

open Grapho

val covers_edge : n:int -> Edge.Set.t -> k:int -> Edge.t -> bool
(** [covers_edge ~n s ~k e]: does [s] contain a path of length ≤ [k]
    between the endpoints of [e]? *)

val uncovered_edges : Ugraph.t -> Edge.Set.t -> k:int -> Edge.t list
(** Edges of the graph not covered by the candidate spanner. *)

val is_spanner : Ugraph.t -> Edge.Set.t -> k:int -> bool
(** [is_spanner g s ~k]: [s] covers every edge of [g]. [s] must be a
    subset of [g]'s edges (checked). *)

val is_spanner_of_targets :
  n:int -> targets:Edge.Set.t -> Edge.Set.t -> k:int -> bool
(** Client-server / partial form: does the edge set cover every edge
    of [targets]? *)

val spanner_csr : n:int -> Edge.Set.t -> Ugraph.t
(** The candidate set as its own CSR graph — the index
    {!covers_edge_2} probes; the same function as
    {!Grapho.Ugraph.of_edge_set}. Build it once per candidate set,
    then each certificate check is one sorted-row merge. *)

val covers_edge_2 : spanner_csr:Ugraph.t -> int -> int -> bool
(** Stretch-2 certificate against a prebuilt {!spanner_csr}: the edge
    itself or one common neighbor inside the candidate set.
    O(deg u + deg v) in the candidate CSR, allocation-free —
    equivalent to [covers_edge ~k:2] but usable per churn tick on large
    graphs, where the BFS checker's O(n) scratch per edge is
    infeasible. *)

val is_2_spanner_csr : Ugraph.t -> spanner_csr:Ugraph.t -> bool
(** [is_2_spanner_csr g ~spanner_csr] is [true] iff every edge of [g]
    passes {!covers_edge_2}: one probe per graph edge, no build and
    no allocation. [spanner_csr] must be a subgraph of [g] on the
    same vertex set; that is not checked. {!Incremental.valid} runs
    this against the spanner CSR it maintains as its every-tick
    verdict ([spanner_cli churn], the daemon's CHURN and perfbench
    [serve_mixed]). *)

val is_2_spanner_fast : Ugraph.t -> Edge.Set.t -> bool
(** Equivalent to [is_spanner g s ~k:2] (including the subset check):
    {!Grapho.Ugraph.induced_by_edges} builds the CSR of [s] and
    raises [Invalid_argument] on an edge of [s] not in [g], then
    {!is_2_spanner_csr} gives the verdict — O(n + m_s + Σ_e merge)
    total instead of O(m n). The equivalence is pinned by the test
    suite. *)

type query
(** Reusable BFS scratch for {!query_path} — stamp/parent/queue
    arrays recycled across queries via an epoch counter, so a query
    allocates only its result list. One value per serving thread;
    grows to fit the largest graph it has seen. *)

val query_create : ?n:int -> unit -> query
(** Fresh scratch, pre-sized for graphs of [n] vertices (default 0 —
    it grows on first use). *)

val query_path : query -> Ugraph.t -> u:int -> v:int -> int list option
(** [query_path q sg ~u ~v] is a shortest [u]–[v] path in [sg]
    (typically the spanner CSR {!Incremental.spanner_csr} maintains)
    as its vertex sequence [u; ...; v], or [None] if the two are
    disconnected in [sg]; [Some [u]] when [u = v]. One BFS from [u] with early exit at [v],
    deterministic (CSR neighbor order), allocation-free apart from
    the returned list. When [sg] is a valid 2-spanner of a graph with
    edge [{u,v}], the result has at most 2 hops — the daemon's QUERY
    kernel, stretch pinned by the test suite. Raises
    [Invalid_argument] if [u] or [v] is outside [sg]. *)

val directed_uncovered_edges :
  Dgraph.t -> Edge.Directed.Set.t -> k:int -> Edge.Directed.t list

val is_directed_spanner : Dgraph.t -> Edge.Directed.Set.t -> k:int -> bool

val stretch : Ugraph.t -> Edge.Set.t -> int
(** Maximum over edges [{u,v}] of [g] of the distance between [u] and
    [v] in the spanner ([max_int] if some edge is not spanned at all).
    A set is a k-spanner iff its stretch is at most [k]. *)
