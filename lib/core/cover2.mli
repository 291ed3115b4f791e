(** Incremental coverage bookkeeping for 2-spanner algorithms.

    A tracker watches a set of {e target} edges that must be covered
    and a set of {e usable} edges from which the spanner may be built
    (targets = usable = all edges for the plain problem; targets =
    client edges and usable = server edges for the client-server
    variant). A target [{u,w}] is covered once the spanner contains it
    or contains a 2-path [u–z–w].

    The tracker maintains, per vertex [v], the paper's set [H_v]: the
    still-uncovered targets 2-spanned by the full usable [v]-star,
    i.e. targets both of whose endpoints are usable-neighbors of [v].
    Updates run in time proportional to the neighborhood of the
    touched vertices, so a whole run costs O(m·Δ) bookkeeping. *)

open Grapho

type t

val create : n:int -> targets:Edge.Set.t -> usable:Edge.Set.t -> t
val n : t -> int
val spanner : t -> Edge.Set.t
val uncovered : t -> Edge.Set.t
val uncovered_count : t -> int
val all_covered : t -> bool

val hv : t -> int -> Edge.Set.t
(** Still-uncovered targets 2-spannable by the full usable star of the
    vertex. The returned set must not be relied upon across [add]s. *)

val usable_neighbors : t -> int -> int array
(** Sorted; static over the run. *)

val uncovered_incident : t -> int -> Edge.Set.t
(** Uncovered targets having the vertex as an endpoint. *)

val add : t -> Edge.Set.t -> dirty:(int -> unit) -> unit
(** [add t edges ~dirty] inserts usable edges into the spanner,
    recomputes coverage of the affected targets and calls [dirty z]
    for every vertex whose [H_z] lost an edge (each vertex at most
    once per call). Raises [Invalid_argument] if an edge is not
    usable. *)

val uncoverable_targets : t -> Edge.Set.t
(** Targets no combination of usable edges can ever cover (relevant
    for client-server instances; empty when targets ⊆ usable). *)
