(** Immutable undirected simple graphs on vertices [0 .. n-1].

    The representation is an int-packed CSR adjacency: a
    [(row_ptr, col)] pair of off-heap Bigarrays with each neighbor row
    sorted ascending. Degree is O(1) ([row_ptr.(u+1) - row_ptr.(u)]),
    membership is O(log deg) binary search, iteration is a flat-buffer
    scan with zero GC traffic, and a graph occupies exactly
    [8 * (n + 1 + 2m)] bytes. Graphs are built once — from an edge
    list, an edge set, or a streaming emitter — and never mutated. A
    graph that changes (churned graphs, and the spanner maintained
    under churn, which is kept as a CSR subgraph) is replaced by a
    fresh one through {!apply_delta}, a row merge that copies the
    untouched rows and merges only the changed ones; algorithms that
    grow an edge set from scratch (the protocols' spanner outputs)
    build an {!Edge.Set}. *)

type t

module Builder : sig
  type builder
  (** Streaming constructor: feed endpoint pairs one at a time, in any
      order and orientation, without ever materializing an edge list.
      Duplicates are merged at {!finish}. The builder buffers
      endpoints off the OCaml heap, so building an m-edge graph
      allocates O(1) words on the minor heap. *)

  val create : ?expected_edges:int -> n:int -> unit -> builder
  (** [create ~n ()] starts a builder for vertex set [0..n-1].
      [expected_edges] pre-sizes the endpoint buffers (growth is
      amortized doubling either way). *)

  val add_edge : builder -> int -> int -> unit
  (** Buffers one edge. Raises [Invalid_argument] on out-of-range
      endpoints or self-loops, and if the builder is finished. *)

  val finish : builder -> t
  (** Produces the CSR graph: one counting pass, one scatter pass, a
      per-row sort and an in-place dedup — O(m log deg_max) time,
      O(m) off-heap space. The builder cannot be reused until
      {!reset}. *)

  val reset : builder -> n:int -> unit
  (** Rewinds a (possibly finished) builder for another build over
      vertex set [0..n-1], keeping the grown endpoint buffers, so a
      loop that builds through the same builder allocates off-heap
      storage only until the buffers reach steady-state capacity. *)
end

module Delta : sig
  type t
  (** A batched edge update against some graph: a set of edges to
      delete plus a set to insert, accumulated incrementally and
      applied atomically by {!apply_delta}. The accumulator and its
      sort workspaces live off-heap and are reusable via {!reset},
      so a churn tick allocates nothing here in steady state. The
      delta is graph-independent until applied; endpoint range checks
      happen at {!apply_delta} time. *)

  val create : ?expected:int -> unit -> t
  (** [expected] pre-sizes the edge buffers (amortized doubling
      either way). *)

  val reset : t -> unit
  (** Empties both edge sets, keeping all backing storage. *)

  val add_insert : t -> int -> int -> unit
  (** Queues one edge insertion. Orientation is canonicalized;
      self-loops and negative endpoints raise [Invalid_argument]. *)

  val add_delete : t -> int -> int -> unit

  val inserts : t -> int
  (** Queued insertion count. *)

  val deletes : t -> int

  val iter_inserts : (int -> int -> unit) -> t -> unit
  (** Queued insertions as canonical [u < v] pairs, in queue order. *)

  val iter_deletes : (int -> int -> unit) -> t -> unit
end

val apply_delta : ?builder:Builder.builder -> t -> Delta.t -> t
(** [apply_delta g d] is [g] with [d]'s deletions removed and its
    insertions added, as a fresh graph — [g] itself is immutable and
    untouched. Raises [Invalid_argument] if any deleted edge is
    absent from [g], any inserted edge is already present, an edge is
    queued twice on the same side or on both sides, or an endpoint is
    outside [g]'s vertex range — a rejected delta leaves no partial
    state: every check runs before anything is written.

    Implemented as a row merge: the delta's directed changes are
    sorted per row, untouched rows are copied with a shifted
    [row_ptr], and each touched row is merged from its old sorted row
    and its sorted inserts, skipping its deletes. O(n + m + |d| log
    |d|) time, no per-row sort. The change list lives in the delta's
    own key workspace, so off-heap allocation is the result's
    exact-size buffers plus any growth of that workspace. On the OCaml
    heap a call allocates a few words (the result record, buffer
    headers, the validation closures) and nothing per row or edge.

    [?builder] is ignored and the builder passed is not touched; the
    argument is kept so that callers which pass a reusable builder
    still compile. *)

val of_edge_iter : ?expected_edges:int -> n:int -> ((int -> int -> unit) -> unit) -> t
(** [of_edge_iter ~n iter] builds a graph by running [iter emit],
    where each [emit u v] call streams one edge into a {!Builder}.
    The canonical way to construct large graphs in O(m) memory. *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds a graph with vertex set [0..n-1].
    Duplicate edges are merged; self-loops raise [Invalid_argument],
    as do endpoints outside the vertex range. *)

val of_edge_set : n:int -> Edge.Set.t -> t

val empty : int -> t
(** [empty n] has [n] vertices and no edges. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of edges. *)

val degree : t -> int -> int
(** O(1): two [row_ptr] reads. *)

val max_degree : t -> int

val neighbors : t -> int -> int array
(** Sorted array of neighbors. Allocates a fresh copy of the CSR row
    on every call — fine at init time, wrong in a per-round hot path;
    use {!iter_neighbors}/{!fold_neighbors} there. *)

val iter_neighbors : (int -> unit) -> t -> int -> unit
(** [iter_neighbors f g u] applies [f] to each neighbor of [u] in
    ascending order. The hot-path alternative to {!neighbors}: no
    array is copied and nothing escapes — two [row_ptr] reads, then
    one flat-buffer load per neighbor. *)

val fold_neighbors : ('a -> int -> 'a) -> t -> int -> 'a -> 'a
(** [fold_neighbors f g u init] folds [f] over the neighbors of [u]
    in ascending order. *)

val mem_edge : t -> int -> int -> bool
(** O(log deg) binary search in the lower-degree endpoint's row;
    allocation-free. *)

val edge_slot : t -> int -> int -> int
(** [edge_slot g u v] is the position of [v] within [u]'s sorted
    neighbor row as a global index into the CSR column buffer, or
    [-1] when [(u, v)] is not an edge. The index is a stable
    identifier for the {e directed} edge [u -> v] in [0, 2m) —
    [edge_slot g v u] names the opposite direction — so flat arrays
    of length [2m] can carry per-directed-edge state without
    hashing. O(log deg u), allocation-free. *)

val slot_endpoints : t -> int -> int * int
(** [slot_endpoints g i] is the directed edge [(u, v)] whose
    {!edge_slot} is [i], for [i] in [0, 2m) ([Invalid_argument]
    outside) — a [row_ptr] binary search, O(log n). Drawing [i]
    uniformly gives a uniform random edge (each edge owns exactly two
    slots), which is how the churn generator samples deletions
    without materializing an edge list. *)

val common_neighbor : t -> int -> int -> int
(** [common_neighbor g u v] is the smallest vertex adjacent to both
    [u] and [v], or [-1] if none exists. One ascending merge of the
    two sorted neighbor rows — O(deg u + deg v), allocation-free.
    With [g] the CSR of a candidate spanner this is the stretch-2
    certificate probe: edge [(u, v)] is 2-spanned iff it is in the
    set or this returns a witness. *)

val iter_common_neighbors : (int -> unit) -> t -> int -> int -> unit
(** [iter_common_neighbors f g u v] applies [f] to every vertex
    adjacent to both [u] and [v], in ascending order — the same merge
    as {!common_neighbor} without the early exit, O(deg u + deg v),
    allocation-free. The churn path uses it to pull every 2-path
    midpoint of a broken edge into the dirty ball. *)

val row_matches : t -> int -> int array -> lo:int -> hi:int -> bool
(** [row_matches g u dsts ~lo ~hi] is [true] iff
    [dsts.(lo .. hi-1)] is exactly [u]'s neighbor row (same length,
    same vertices, same ascending order). Allocation-free; the
    engine uses it to recognize a full-neighborhood broadcast in an
    outbox segment. *)

val edges : t -> Edge.t list
(** Materializes the edge list — prefer {!iter_edges_uv} or
    {!fold_edges} when the caller only iterates. *)

val edge_set : t -> Edge.Set.t

val iter_edges : (Edge.t -> unit) -> t -> unit
(** Edges in ascending lexicographic order. Allocates one {!Edge.t}
    per edge; {!iter_edges_uv} is the allocation-free variant. *)

val fold_edges : (Edge.t -> 'a -> 'a) -> t -> 'a -> 'a

val iter_edges_uv : (int -> int -> unit) -> t -> unit
(** [iter_edges_uv f g] calls [f u v] once per edge with [u < v], in
    ascending lexicographic order, allocating nothing. *)

val fold_edges_uv : ('a -> int -> int -> 'a) -> t -> 'a -> 'a

val fold_vertices : (int -> 'a -> 'a) -> t -> 'a -> 'a

val induced_by_edges : t -> Edge.Set.t -> t
(** [induced_by_edges g s] keeps the vertex set of [g] but only the
    edges in [s]. All edges of [s] must be edges of [g]. *)

val equal : t -> t -> bool
(** Structural equality, O(n + m): the CSR layout is canonical, so
    this is a flat buffer comparison, not an edge-set comparison. *)

val resident_bytes : t -> int
(** Exact bytes held by the adjacency buffers:
    [8 * (n + 1 + 2m)]. *)

val pp : Format.formatter -> t -> unit
