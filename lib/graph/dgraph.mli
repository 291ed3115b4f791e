(** Immutable directed simple graphs on vertices [0 .. n-1].

    Out-, in- and underlying-undirected adjacency are all materialized
    (as int-packed CSR structures in off-heap Bigarrays, like
    {!Ugraph}) because distributed spanner algorithms communicate over
    the underlying undirected topology while covering directed
    edges. *)

type t

val of_edge_iter : ?expected_edges:int -> n:int -> ((int -> int -> unit) -> unit) -> t
(** [of_edge_iter ~n iter] builds a digraph by running [iter emit],
    streaming each [emit u v] edge into the CSR builder without
    materializing an edge list. Duplicates are merged; self-loops and
    out-of-range endpoints raise [Invalid_argument]. *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds a digraph; [(u, v)] is an edge from [u]
    to [v]. Duplicates are merged; self-loops and out-of-range
    endpoints raise [Invalid_argument]. Antiparallel pairs are kept. *)

val of_edge_set : n:int -> Edge.Directed.Set.t -> t
val empty : int -> t
val n : t -> int
val m : t -> int
val out_degree : t -> int -> int
val in_degree : t -> int -> int

val out_neighbors : t -> int -> int array

val iter_out_neighbors : (int -> unit) -> t -> int -> unit
(** [iter_out_neighbors f g u] applies [f] to each out-neighbor of [u]
    in ascending order, straight off the CSR row — the allocation-free
    counterpart of {!out_neighbors}, mirroring
    {!Ugraph.iter_neighbors}. *)

val undirected_neighbors : t -> int -> int array
(** Sorted, deduplicated union of in- and out-neighbors. Like
    {!out_neighbors}, this copies the CSR row into a fresh array. *)

val mem_edge : t -> int -> int -> bool
(** [mem_edge g u v] tests for the directed edge [u -> v]. *)

val edges : t -> Edge.Directed.t list
val edge_set : t -> Edge.Directed.Set.t
val iter_edges : (Edge.Directed.t -> unit) -> t -> unit
val fold_edges : (Edge.Directed.t -> 'a -> 'a) -> t -> 'a -> 'a

val iter_edges_uv : (int -> int -> unit) -> t -> unit
(** [iter_edges_uv f g] calls [f u v] once per directed edge
    [u -> v], in ascending lexicographic order, allocating nothing. *)

val underlying : t -> Ugraph.t
(** Forget orientations (antiparallel pairs collapse). *)

val resident_bytes : t -> int
(** Exact bytes held by the three CSR adjacency views. *)

val pp : Format.formatter -> t -> unit
