(** Distributed approximation of directed minimum 2-spanners
    (Theorem 4.9): O(log (m/n)) guaranteed approximation, O(log n ·
    log Δ) rounds w.h.p.

    A [v]-star here is a set of directed edges incident to [v] (both
    orientations allowed); it 2-spans a directed edge [(u,w)] when it
    contains [(u,v)] and [(v,w)]. Following Section 4.3.1, the densest
    directed star is approximated within factor 2 through its
    undirected shadow (Claims 4.10/4.11): compute the densest
    undirected star over the 2-spannable uncovered edges ignoring
    orientation, then re-orient by taking every existing orientation
    of each chosen star edge. Accordingly the star threshold relaxes
    from a quarter to an eighth of the rounded density, and the
    rounded density of a vertex is kept monotone by capping it with
    the previous iteration's value (the paper's footnote 7).

    Communication runs over the underlying undirected topology, per
    the model of Section 1.5.

    The iteration itself is {!Two_spanner_engine.iterate}, under the
    paper's {!Two_spanner_engine.unweighted} rules and the [Votes
    0.125] admission; this module supplies only what is directed: the
    coverage tracker over directed targets, the shadow-based density,
    the directed closure of Section 4.1, the orientations a chosen star
    adds, the monotone exponent, and vote values drawn in sequence from
    [rng] (in ascending candidate order). *)

open Grapho

type result = {
  spanner : Edge.Directed.Set.t;
  iterations : int;
  rounds : int;
  stars_added : int;
  candidate_count : int;
}

val run : ?rng:Rng.t -> ?max_iterations:int -> Dgraph.t -> result
(** The result is always a valid directed 2-spanner. *)
