(** Dinic's maximum-flow algorithm on float capacities.

    Used by {!Densest} to solve the maximal-density problem that the
    paper's Section 4 relies on ("this is the maximal density problem,
    that can be solved in polynomial time using flow techniques
    [36]"). Capacities are floats; a small epsilon guards residual
    tests, which is sound here because {!Densest} re-checks candidate
    answers exactly.

    A network is a reusable arena: arcs live in flat arrays that
    {!reset} empties without freeing, so a caller solving many small
    flow problems builds each one in the same network and allocates
    only when a problem outgrows every earlier one. Each node's arcs
    are searched in the order they were added. A network is mutable
    and unsynchronised: it belongs to one domain at a time
    ({!Densest} keeps one per domain). *)

type t

val create : int -> t
(** [create n] makes an empty network with nodes [0 .. n-1]. *)

val reset : t -> int -> unit
(** [reset t n] empties [t] and gives it nodes [0 .. n-1], reusing its
    buffers. The result behaves exactly like [create n]. *)

val add_edge : t -> src:int -> dst:int -> cap:float -> unit
(** Adds a directed edge with the given capacity (and a reverse edge
    of capacity 0). *)

val max_flow : t -> s:int -> t:int -> float
(** Computes the max flow; mutates the network's residual
    capacities. *)

val min_cut_side : t -> s:int -> bool array
(** After {!max_flow}, the set of nodes reachable from [s] in the
    residual network (the source side of a minimum cut). *)
