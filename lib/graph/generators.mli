(** Graph families used by the tests, examples and benchmarks.

    Random generators take an {!Rng.t} so that every workload is
    reproducible. Generators that can produce disconnected graphs
    offer a [connected] variant that adds a Hamiltonian-path backbone. *)

val path : int -> Ugraph.t
val cycle : int -> Ugraph.t
val star : int -> Ugraph.t
(** [star n]: vertex 0 joined to [1..n-1]. *)

val complete : int -> Ugraph.t
val complete_bipartite : int -> int -> Ugraph.t
(** [complete_bipartite a b]: sides [0..a-1] and [a..a+b-1]. The
    worst-case instance for 2-spanner sparsity cited in the paper. *)

val grid : int -> int -> Ugraph.t
(** [grid rows cols]. *)

val hypercube : int -> Ugraph.t
(** [hypercube d]: the d-dimensional Boolean cube on [2^d] vertices. *)

val gnp : Rng.t -> int -> float -> Ugraph.t
(** Erdős–Rényi G(n, p). *)

val gnp_connected : Rng.t -> int -> float -> Ugraph.t
(** G(n, p) plus a random Hamiltonian path, guaranteeing connectivity
    without changing the density regime. *)

val preferential_attachment : Rng.t -> int -> int -> Ugraph.t
(** [preferential_attachment rng n k]: Barabási–Albert-style growth,
    each new vertex attaching to [k] existing vertices weighted by
    degree. Produces the skewed degree distributions under which the
    [O(log Δ)] bounds differ visibly from [O(log n)]. *)

val caveman : Rng.t -> int -> int -> float -> Ugraph.t
(** [caveman rng cliques size p_rewire]: connected caveman graph of
    [cliques] cliques of [size] vertices with rewiring probability,
    a locally-dense family where star-based 2-spanners shine. *)

val caveman_n : Rng.t -> int -> float -> Ugraph.t
(** [caveman_n rng n p_rewire]: connected caveman graph on {e exactly}
    [n] vertices: [ceil (n / 8)] cliques of near-equal sizes (within
    one of [n / cliques]) joined in a ring, then rewired as
    {!caveman}. Raises [Invalid_argument] when [n <= 0]. *)

val clique_ladder : Rng.t -> int -> Ugraph.t
(** [clique_ladder rng n]: disjoint cliques of growing sizes (4, 6,
    8, ...) plus ~3n random chords. Densities span many scales, which
    exercises the density-level structure of the 2-spanner analysis. *)

val random_tree : Rng.t -> int -> Ugraph.t
(** Uniform random labelled tree (Prüfer sequence decoding). *)

val random_regular_ish : Rng.t -> int -> int -> Ugraph.t
(** Random graph with degrees close to [d]: union of [d/2] random
    Hamiltonian cycles (plus a path when [d] is odd). *)

val random_orientation : Rng.t -> Ugraph.t -> Dgraph.t
(** Orient each edge uniformly at random. *)

val random_dag_orientation : Ugraph.t -> Dgraph.t
(** Orient each edge from the smaller to the larger endpoint. *)

val bidirect : Ugraph.t -> Dgraph.t
(** Replace each undirected edge by both orientations. *)

val random_weights : Rng.t -> Ugraph.t -> max_weight:int -> Weights.t
(** Integer weights drawn uniformly from [1..max_weight]. *)

val random_weights_with_zeros :
  Rng.t -> Ugraph.t -> zero_fraction:float -> max_weight:int -> Weights.t

val random_client_server :
  Rng.t -> Ugraph.t -> client_fraction:float -> server_fraction:float ->
  Edge.Set.t * Edge.Set.t
(** [(clients, servers)]: each edge is independently a client and/or a
    server with the given probabilities; edges drawn as neither are
    made servers so that the instance stays meaningful. *)
