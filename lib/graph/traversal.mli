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

val adjacency_of_set : n:int -> Edge.Set.t -> int list array
(** Adjacency lists of the subgraph formed by an edge set. *)

val set_distance_within : n:int -> Edge.Set.t -> int -> int -> bound:int -> int
(** [set_distance_within ~n s u v ~bound] is the hop distance from [u]
    to [v] using only edges of [s], or [max_int] if it exceeds
    [bound]. *)

val directed_adjacency_of_set : n:int -> Edge.Directed.Set.t -> int list array

val directed_set_distance_within :
  n:int -> Edge.Directed.Set.t -> int -> int -> bound:int -> int
(** Directed variant of {!set_distance_within}. *)
