(** Distributed approximation of weighted minimum 2-spanners
    (Theorem 4.12): O(log Δ) guaranteed approximation, O(log n ·
    log (ΔW)) rounds w.h.p., where W is the ratio of the extreme
    positive edge weights.

    Differences from the unweighted algorithm (Section 4.3.2): star
    densities divide covered counts by star {e weight}; weight-zero
    edges enter the spanner up front; rounded densities extend to
    negative powers of two; a vertex terminates once the maximal
    density in its 2-neighborhood is at most [1/wmax], for [wmax] the
    largest weight adjacent to its 2-neighborhood. *)

open Grapho

val rules : Ugraph.t -> Weights.t -> Two_spanner_engine.rules
(** The weighted rules, shared with {!Two_spanner_local.run_weighted}:
    weights [w], candidacy at any positive density, termination once
    the 2-neighborhood's maximal density is at most [1/wmax(v)] (wmax
    over the closed 2-neighborhood; no floor when it is 0), terminated
    vertices left out of the maxima. *)

type result = {
  spanner : Edge.Set.t;
  cost : float;
  iterations : int;
  rounds : int;
  stars_added : int;
  candidate_count : int;
}

val run :
  ?rng:Rng.t ->
  ?seed:int ->
  ?max_iterations:int ->
  ?selection:Two_spanner_engine.selection ->
  Ugraph.t ->
  Weights.t ->
  result
(** The result is always a valid 2-spanner of the input graph. *)
