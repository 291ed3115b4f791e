(** Maximum-density subgraph (Goldberg 1984), via min cuts in
    Goldberg's network driven by Dinkelbach's search.

    Given a graph on nodes [0..n-1] with edge multiset [E], positive
    node weights [w] and non-negative node bonuses [b], find a
    non-empty [S] maximizing [(|E(S)| + b(S)) / w(S)] where [E(S)] are
    the edges with both endpoints in [S]. With unit weights and zero
    bonuses this is Goldberg's classic maximum density subgraph; the
    weights are needed for the paper's weighted 2-spanner stars
    (Section 4.3.2) and the bonuses account there for target edges
    covered "for free" through weight-zero star edges.

    This is the workhorse behind densest-star computation: for a
    vertex [v] of the input graph, the densest [v]-star with respect
    to a set [H] of uncovered edges is exactly the densest subgraph of
    the graph whose nodes are [v]'s neighbors and whose edges are the
    edges of [H] joining two neighbors (each chosen neighbor
    contributes its star edge, each induced [H]-edge is 2-spanned). *)

val solver_calls : int Atomic.t
(** Cumulative count of {!densest_subset} invocations in this process,
    from every domain. Cheap instrumentation for the bench harness
    ([bench/main.exe --json] reports it per workload). *)

val densest_subset :
  ?weights:float array ->
  ?bonuses:float array ->
  n:int ->
  edges:(int * int) array ->
  unit ->
  (int list * float) option
(** [densest_subset ~n ~edges ()] returns a maximizing subset (sorted)
    and its density, or [None] when the instance has no positive-
    density subset ([edges] empty and all bonuses zero). Node weights
    must be positive, bonuses non-negative; the returned density is
    computed exactly from the returned subset (as {!density_of} does).

    Instances with [n <= 12] and no duplicate edge are solved by
    enumerating all subsets, returning the first maximizer in subset-
    bitmask order. Larger ones run Dinkelbach's search on Goldberg's
    min-cut network: starting from a seed (the first edge's endpoints,
    or the best single bonus node), it probes at the incumbent's exact
    density and adopts the min-cut source side while that is strictly
    denser. Each witness is the minimal maximizer of
    [|E(S)| + b(S) - g w(S)], so the answer is canonical: the union of
    all maximum-density subsets (the inclusion-maximal one), or the
    seed when the seed is already of maximum density. This is exact up
    to the float arithmetic of the flow network: a subset denser than
    the incumbent by less than about [1e-6 / w(S)] is not seen. *)

val density_of :
  ?weights:float array ->
  ?bonuses:float array ->
  edges:(int * int) array ->
  int list ->
  float
(** Exact density of a given subset (a set of vertices: duplicates
    count once). Weights and bonuses are summed in ascending vertex
    order. *)

val brute_force :
  ?weights:float array ->
  ?bonuses:float array ->
  n:int ->
  edges:(int * int) array ->
  unit ->
  (int list * float) option
(** Exponential reference implementation for tests; [n <= 20]. Returns
    the first maximizer in subset-bitmask order. *)
