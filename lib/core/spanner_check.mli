(** Validity checkers for all spanner variants of the paper.

    Following Section 1.5: an edge [{u,v}] is covered by an edge set
    [S] if [S] contains a path of length at most [k] between [u] and
    [v]; a k-spanner of [G] covers every edge of [G]; a k-spanner of a
    subgraph [G' ⊆ G] is a subset of [G]'s edges covering every edge
    of [G']. For directed graphs the path must be directed from [u]
    to [v].

    Every check builds the candidate's CSR once, then answers each
    edge with one {!Grapho.Traversal.search} bounded at [k] — for
    [k = 2], one {!covers_edge_2} row merge instead. A verdict costs
    the build, one O(n) scratch, and per edge [{u,v}] the degrees
    summed over the candidate's radius-[(k-1)] ball around [u], cut
    short at [v]. *)

open Grapho

val uncovered_edges : Ugraph.t -> Edge.Set.t -> k:int -> Edge.t list
(** Edges of the graph not covered by the candidate spanner, in
    descending {!Grapho.Edge.compare} order. *)

val is_spanner : Ugraph.t -> Edge.Set.t -> k:int -> bool
(** [is_spanner g s ~k]: [s] covers every edge of [g]. [s] must be a
    subset of [g]'s edges (checked). *)

val is_spanner_of_targets :
  n:int -> targets:Edge.Set.t -> Edge.Set.t -> k:int -> bool
(** Client-server / partial form: does the edge set cover every edge
    of [targets]? With [~targets:(Edge.Set.singleton e)] this asks
    whether the set covers the single edge [e]. *)

val uncovered_of_targets :
  n:int -> targets:Edge.Set.t -> Edge.Set.t -> k:int -> Edge.t list
(** The edges of [targets] the set does not cover, in descending
    {!Grapho.Edge.compare} order. *)

val spanner_csr : n:int -> Edge.Set.t -> Ugraph.t
(** The candidate set as its own CSR graph — the index
    {!covers_edge_2} probes; the same function as
    {!Grapho.Ugraph.of_edge_set}. Build it once per candidate set,
    then each certificate check is one sorted-row merge. *)

val covers_edge_2 : spanner_csr:Ugraph.t -> int -> int -> bool
(** Stretch-2 certificate against a prebuilt {!spanner_csr}: the edge
    itself or one common neighbor inside the candidate set.
    O(deg u + deg v) in the candidate CSR, allocation-free —
    equivalent to a bounded search with [k = 2], and what every
    checker here runs for that [k]. *)

val is_2_spanner_csr : Ugraph.t -> spanner_csr:Ugraph.t -> bool
(** [is_2_spanner_csr g ~spanner_csr] is [true] iff every edge of [g]
    passes {!covers_edge_2}: one probe per graph edge, no build and
    no allocation. [spanner_csr] must be a subgraph of [g] on the
    same vertex set; that is not checked. {!Incremental.valid} runs
    this against the spanner CSR it maintains as the whole-graph
    audit ([spanner_cli churn], perfbench [serve_mixed]) and as the
    base a daemon LOAD checks once; a churn tick's own verdict runs
    {!covers_edge_2} on its candidates only. *)

val is_2_spanner_fast : Ugraph.t -> Edge.Set.t -> bool
(** [is_spanner g s ~k:2]. *)

type query
(** Reusable BFS scratch for {!query_path}: the kernel's
    epoch-stamped arrays, so a query allocates only its result list
    and a few words of closures. One value per serving thread; grows
    to fit the largest graph it has seen. *)

val query_create : ?n:int -> unit -> query
(** Fresh scratch, pre-sized for graphs of [n] vertices (default 0 —
    it grows on first use). *)

val query_path : query -> Ugraph.t -> u:int -> v:int -> int list option
(** [query_path q sg ~u ~v] is a shortest [u]–[v] path in [sg]
    (typically the spanner CSR {!Incremental.spanner_csr} maintains)
    as its vertex sequence [u; ...; v], or [None] if the two are
    disconnected in [sg]; [Some [u]] when [u = v]. One
    {!Grapho.Traversal.search} from [u] with early exit at [v],
    deterministic (CSR neighbor order). When [sg] is a valid
    2-spanner of a graph with edge [{u,v}], the result has at most 2
    hops — the daemon's QUERY kernel, stretch pinned by the test
    suite. Raises [Invalid_argument] if [u] or [v] is outside [sg]. *)

val directed_uncovered_edges :
  Dgraph.t -> Edge.Directed.Set.t -> k:int -> Edge.Directed.t list
(** Directed edges of the graph with no directed path of length ≤ [k]
    in the set, in descending order. *)

val is_directed_spanner : Dgraph.t -> Edge.Directed.Set.t -> k:int -> bool

val stretch : Ugraph.t -> Edge.Set.t -> int
(** Maximum over edges [{u,v}] of [g] of the distance between [u] and
    [v] in the spanner ([max_int] if some edge is not spanned at all).
    A set is a k-spanner iff its stretch is at most [k]. *)

val iter_stretch : Ugraph.t -> Edge.Set.t -> (int -> unit) -> unit
(** [iter_stretch g s f] calls [f] with the spanner distance of every
    edge of [g] ([max_int] when unreachable), in no specified order:
    one {!Grapho.Traversal.target_distances} pass, i.e. one search
    per vertex [u] that stops once every neighbor [v > u] is reached
    or [u]'s spanner component runs out. *)

val directed_iter_stretch :
  Dgraph.t -> Edge.Directed.Set.t -> (int -> unit) -> unit
(** Directed {!iter_stretch}: one search per vertex, stopping once
    every out-neighbor is reached. *)
