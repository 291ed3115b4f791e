(** Breadth-first search and derived graph queries. *)

val bfs_distances : Ugraph.t -> int -> int array
(** [bfs_distances g s] maps each vertex to its hop distance from [s];
    unreachable vertices get [max_int]. *)

val distance : Ugraph.t -> int -> int -> int
(** Hop distance; [max_int] if disconnected. *)

val ball : Ugraph.t -> int -> int -> int list
(** [ball g v d] lists the vertices at distance at most [d] from [v],
    in increasing distance order. *)

val components : Ugraph.t -> int array
(** Component id per vertex (ids are arbitrary but dense from 0). *)

val component_count : Ugraph.t -> int
val is_connected : Ugraph.t -> bool

val eccentricity : Ugraph.t -> int -> int
(** Largest finite distance from the vertex; [max_int] when the graph
    is disconnected. *)

val diameter : Ugraph.t -> int
(** [max_int] when disconnected. Exact, O(n·m). *)

val girth : Ugraph.t -> int
(** Length of a shortest cycle; [max_int] for forests. *)

(** {1 The bounded-BFS kernel}

    One breadth-first search serves every checker, stretch report and
    path query. A search costs O(1 + Σ deg x over the vertices it
    expands) and allocates a few words of closures: its scratch is
    epoch-stamped, so there is no O(n) fill and no queue per call.
    Growing a scratch to [n] vertices costs O(n), once. *)

type walk = { n : int; neighbors : int -> (int -> unit) -> unit }
(** A graph on [0 .. n-1] as a neighbor iterator: [neighbors x f]
    applies [f] to each vertex one hop from [x]. *)

val ugraph : Ugraph.t -> walk
val out_edges : Dgraph.t -> walk
(** Walks straight off the CSR rows: {!Ugraph.iter_neighbors}, and
    {!Dgraph.iter_out_neighbors} for directed paths. *)

type scratch
(** Reusable search state, grown to the largest [n] it has seen. Use
    one per domain. *)

val scratch : ?n:int -> unit -> scratch
(** Fresh scratch, pre-sized for [n] vertices (default 0). *)

val search :
  scratch -> walk -> bound:int -> stop:(int -> bool) -> int -> bool
(** [search sc w ~bound ~stop src] runs a BFS from [src] that expands
    only vertices at depth below [bound] ([max_int]: no bound). Each
    newly reached vertex [y] (never [src]) goes to [stop y], in BFS
    order; the search returns [true] as soon as that answers [true],
    and [false] once the bounded ball is exhausted. *)

val depth : scratch -> int -> int
(** Distance from the last search's source, or [max_int] if that
    search did not reach the vertex. *)

val path : scratch -> int -> int list option
(** The last search's BFS-tree path [src; ...; v], or [None]. *)

val distance_within : scratch -> walk -> bound:int -> int -> int -> int
(** [distance_within sc w ~bound u v] is the distance from [u] to [v]
    if at most [bound], else [max_int]: one {!search} stopping at [v]. *)

val target_distances :
  scratch ->
  walk ->
  targets:(int -> (int -> unit) -> unit) ->
  (int -> unit) ->
  unit
(** [target_distances sc w ~targets f] calls [f] with the distance
    from [u] to [v] ([max_int] if unreachable) for each source [u] in
    ascending order and each [v] that [targets u] yields, in that
    order. One unbounded {!search} per source, stopping once all its
    targets are reached or the component runs out. *)
