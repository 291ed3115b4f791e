(** Plain-text edge-list serialization and Graphviz export. *)

val to_edge_list : Ugraph.t -> string
(** First line "n m", then one "u v" line per edge. *)

val of_edge_list : string -> Ugraph.t
(** Inverse of {!to_edge_list}. Raises [Failure] on malformed input;
    the message carries the 1-based line number of the offending line
    (["Graph_io: line 3: ..."]). Rejected at parse time: non-integer
    fields, out-of-range endpoints, self-loops, and duplicate edges
    (in either orientation) — a graph that parses is exactly the graph
    the file describes. *)

val directed_to_edge_list : Dgraph.t -> string

val directed_of_edge_list : string -> Dgraph.t
(** Like {!of_edge_list} with directed duplicate detection: [(u, v)]
    twice is rejected, but an antiparallel [(v, u)] is a distinct
    edge and accepted. *)

val weighted_to_edge_list : Ugraph.t -> Weights.t -> string
(** First line "n m", then one "u v w" line per edge. *)

val weighted_of_edge_list : string -> Ugraph.t * Weights.t
(** Inverse of {!weighted_to_edge_list}; unlisted weights default
    to 1. Raises [Failure] on malformed input with the same
    line-numbered diagnostics as {!of_edge_list}. *)

val to_dot : ?highlight:Edge.Set.t -> Ugraph.t -> string
(** Graphviz source; edges in [highlight] are drawn bold red (used to
    visualize a spanner inside its graph). *)
