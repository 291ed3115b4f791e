(** The distributed 2-spanner algorithm of Section 4: the one
    iteration loop shared by the unweighted (§4), directed (§4.3.1),
    weighted (§4.3.2) and client-server (§4.3.3) variants.

    The loop executes the paper's iteration faithfully:

    + every vertex computes its rounded density (densest star over its
      still-uncovered 2-spannable targets) and learns the maximum over
      its 2-neighborhood;
    + vertices whose rounded density attains that maximum (and whose
      density passes the variant's candidacy bar) become candidates
      and choose a star with the star-choice mechanism of Section 4.1;
    + candidates draw values in [{1..n^4}]; each uncovered target
      2-spanned by at least one candidate star votes for the first
      such candidate in [(value, id)] order;
    + a candidate star receiving at least an eighth of the votes of
      the targets it 2-spans joins the spanner;
    + coverage and the sets [H_v] are updated, and a vertex whose
      2-neighborhood's maximal density has dropped to the variant's
      floor terminates, adding its remaining uncovered incident
      targets (those the variant allows).

    A variant supplies its {!rules} and, as a {!variant} record, its
    coverage relation and star oracle; {!iterate} is the loop itself.
    The undirected variants describe their instance as a {!spec} and
    call {!run}, which builds the oracle from {!Cover2} and
    {!Star_pick}; {!Directed_two_spanner} builds its own over directed
    targets.

    Every decision of a vertex reads only its own state and its
    2-neighborhood, so each iteration is implementable in O(1) LOCAL
    rounds; {!rounds_per_iteration} is the constant we charge, and the
    returned [rounds] is that constant times the iteration count. *)

open Grapho

type rules = {
  weight : int -> int -> float;
      (** cost of a star edge, queried by endpoints so hot loops never
          allocate an [Edge.t] per probe (see
          [Grapho.Weights.get_uv]); weight-zero edges are added to the
          spanner up front, as the weighted variant prescribes *)
  candidate_ok : int -> float -> bool;
      (** [candidate_ok v rho]: may [v] (density [rho]) stand as a
          candidate? (unweighted: [rho >= 1]) *)
  terminate_ok : int -> float -> bool;
      (** [terminate_ok v max_rho]: does [v] terminate when the
          maximal density in its 2-neighborhood is [max_rho]?
          (unweighted: [max_rho <= 1]) *)
  dominance_includes_terminated : bool;
      (** whether terminated vertices still take part in the density
          maxima that gate candidacy and termination. The paper
          compares against the whole 2-neighborhood (true); the
          weighted variant's per-vertex termination floors make that
          unsafe against stalls, so it passes false. *)
}
(** The per-vertex rules a variant sets. {!Two_spanner_local} reads
    the same values, so the engine and the message-passing protocol
    share one definition of each variant. *)

val unweighted : rules
(** The paper's rules (§4): unit weights, candidacy at [rho >= 1],
    termination once the 2-neighborhood's maximal density is at most
    1, terminated vertices counted in the maxima. The unweighted and
    directed variants use them. *)

type selection =
  | Votes of float
      (** the paper's voting scheme: a star joins when it receives at
          least the given fraction of the votes of the targets it
          2-spans (1/8 in the paper; other values for ablations) *)
  | Coin of float
      (** symmetry breaking by independent coin flips with the given
          acceptance probability — the Dinitz–Krauthgamer-style rule
          whose ratio holds only in expectation; kept as a baseline *)
  | All  (** every candidate star joins; degrades the ratio *)

type spec = {
  graph : Ugraph.t;  (** communication topology *)
  targets : Edge.Set.t;  (** edges that must be covered *)
  usable : Edge.Set.t;  (** edges the spanner may use *)
  finalize : Edge.t -> bool;
      (** which of [v]'s uncovered incident targets are added on
          termination (they must be usable) *)
  rules : rules;
  selection : selection;
      (** how candidate stars are admitted to the spanner; the paper's
          rule is [Votes 0.125] *)
}
(** An undirected instance: unweighted, weighted or client-server. *)

type iteration_stats = {
  iteration : int;
  uncovered_before : int;  (** uncovered targets entering the iteration *)
  max_density : float;  (** largest true density at the iteration start *)
  candidates : int;
  stars_accepted : int;
  terminated_now : int;  (** vertices that terminated this iteration *)
}
(** One row of the optional per-iteration trace: enough to watch the
    potential of Lemma 4.5 fall and the density levels step down. *)

type result = {
  spanner : Edge.Set.t;
  iterations : int;
  rounds : int;  (** [rounds_per_iteration * iterations] LOCAL rounds *)
  stars_added : int;
  candidate_count : int;  (** candidacies summed over iterations *)
  votes_cast : int;
  uncovered : Edge.Set.t;
      (** targets left uncovered: exactly the client-server targets no
          usable 2-path can ever cover; empty otherwise *)
}

val rounds_per_iteration : int
(** 8: two rounds to spread densities to the 2-neighborhood, one each
    for candidate stars, random values and votes, one to announce
    accepted stars, and two to refresh the [H_v] sets. *)

val run :
  ?rng:Rng.t ->
  ?seed:int ->
  ?max_iterations:int ->
  ?trace:(iteration_stats -> unit) ->
  ?sink:Distsim.Trace.sink ->
  spec ->
  result
(** Executes the algorithm to global termination. All vote values are
    drawn through {!Randomness} from [seed] (which, when absent, is
    derived from [rng], which in turn defaults to a fixed seed) so
    that the message-passing implementation {!Two_spanner_local} run
    with the same seed produces the identical spanner.
    [max_iterations] (default [10·(log2 n + 2)·(log2 Δ + 2) + 100])
    guards against the improbable event that the random voting
    stalls, raising [Failure].

    [sink] (default {!Distsim.Trace.null}) receives structured phase
    markers with [round] = iteration number: [Phase {name =
    "candidate"}] per candidacy, ["commit"] per admitted star,
    ["terminate"] per terminating vertex, and [Counter]s ["uncovered"]
    (uncovered targets entering each iteration, summed across
    iterations by [Trace.series]) and ["votes"] (ballots cast). The
    legacy [trace] callback still delivers one {!iteration_stats} row
    per iteration. *)

(** {1 The loop} *)

type 'e variant = {
  topology : Ugraph.t;
      (** communication graph: the 2-hop maxima run over it *)
  rules : rules;  (** the loop reads all but [weight] *)
  selection : selection;
  monotone : bool;
      (** cap each vertex's rounded exponent by its previous value
          (footnote 7; the directed variant, whose densities are
          2-approximate) *)
  density : int -> float;
      (** the density of the vertex's densest star over its current
          [H_v] (0 when [H_v] is empty); called again only after the
          vertex was marked dirty by [add] *)
  choose : int -> stored:int list * int -> level:int -> int list * 'e list;
      (** the Section 4.1 choice at rounded-density level [level], given
          the stored star and the level it was chosen at: the selected
          neighbors and the uncovered targets the star 2-spans
          ([[]] for both when no star qualifies) *)
  star_edges : int -> int list -> 'e list;
      (** the spanner edges a chosen star adds *)
  add : 'e list -> dirty:(int -> unit) -> unit;
      (** put edges into the spanner, update coverage and the [H_v]
          sets, and call [dirty] on every vertex whose [H_v] changed *)
  finals : int -> 'e list;
      (** the uncovered incident targets a terminating vertex adds *)
  draw : seed:int -> vertex:int -> iteration:int -> bound:int -> int;
      (** a candidate's vote value in [{1..bound}]; called once per
          candidacy, in ascending vertex order within an iteration *)
  uncovered_count : unit -> int;
}
(** A variant's coverage relation (over targets of type ['e]) and star
    oracle. *)

type tally = {
  iterations : int;
  stars_added : int;
  candidate_count : int;
  votes_cast : int;
}

val iterate :
  ?rng:Rng.t ->
  ?seed:int ->
  ?max_iterations:int ->
  ?trace:(iteration_stats -> unit) ->
  ?sink:Distsim.Trace.sink ->
  'e variant ->
  tally
(** Runs the loop to global termination, with the defaults, seed
    derivation, failure and tracing described at {!run}; the iteration
    guard's [Δ] is the topology's maximum degree. *)
