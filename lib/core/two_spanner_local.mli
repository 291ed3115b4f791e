(** The Section 4 algorithm as an honest message-passing LOCAL
    protocol on {!Distsim.Engine}.

    Each iteration of the paper's algorithm is realized in 12
    communication rounds:

    + vertices exchange their uncovered incident edges, from which
      every vertex rebuilds its [H_v] and computes its rounded
      density (rounds 1-2 also spread the densities two hops);
    + candidates announce their chosen star together with their random
      draw; the smaller endpoint of each uncovered edge casts the
      edge's vote; accepted stars are announced;
    + coverage percolates: every vertex reports the [H_v]-edges newly
      2-spanned through it to their endpoints, fresh uncovered lists
      rebuild the [H_v]'s, true densities spread two hops, and
      vertices whose 2-neighborhood density has dropped to 1 finalize
      their remaining uncovered edges, whose coverage effects
      percolate in the last two rounds.

    A vertex goes quiet once everyone within distance 2 has
    terminated.

    Each vertex keeps its [H_v] as a sorted, duplicate-free array of
    position pairs of its (ascending) neighbor row, the input
    {!Star_pick.make} reads. The rebuild maps reported endpoints to
    positions and counting-sorts the pairs in per-domain scratch, so
    it costs O(reported entries + degree): no edge sets, no hashing,
    no comparison sort.

    Vote values come from {!Randomness} keyed on [(seed, vertex,
    iteration)], exactly as in {!Two_spanner_engine}: running both
    with the same seed on the same graph yields the {e identical}
    spanner — the differential tests assert this equality. The
    unweighted ({!run}, {!run_congest}) and weighted ({!run_weighted})
    variants are realized here, under the same
    {!Two_spanner_engine.rules} values the engine runs with
    ({!Two_spanner_engine.unweighted}, {!Weighted_two_spanner.rules}). *)

open Grapho

type result = {
  spanner : Edge.Set.t;
  iterations : int;  (** completed 12-round iterations *)
  metrics : Distsim.Engine.metrics;
}

val rounds_per_iteration : int

val warmup_rounds : int
(** Three bootstrap rounds before the first iteration, covering the
    targets that the weighted variant's pre-added weight-zero edges
    already 2-span (a no-op in the unweighted case). *)

val phase_names : string array
(** The twelve phase names a traced run stamps on its rounds, in
    order: [density], [max1], [candidate], [vote], [tally], [accept],
    [fresh], [rho], [max1-rho], [terminate], [final], [restart].
    Round [r >= warmup_rounds] of iteration [i] carries
    [phase_names.((r - warmup_rounds) mod rounds_per_iteration)]. *)

val run :
  ?seed:int ->
  ?max_rounds:int ->
  ?sched:Distsim.Engine.sched ->
  ?par:int ->
  ?adversary:Distsim.Adversary.t ->
  ?profile:Distsim.Profile.t ->
  ?frugal:Distsim.Frugal.t ->
  ?retry:int ->
  ?trace:Distsim.Trace.sink ->
  ?active:int array ->
  Ugraph.t ->
  result
(** Runs under {!Distsim.Model.local} (messages are neighbor lists,
    hence unbounded, as the paper's algorithm requires). The result is
    always a valid 2-spanner. [sched] selects the engine scheduler
    (default [`Active]); the protocol is quiescent when done, so both
    schedulers produce bit-identical results — the equivalence suite
    asserts it. [par] (default 1) steps each round on that many
    domains ({!Distsim.Engine.run}); the protocol keeps all mutable
    state per-vertex and draws votes from the pure
    [(seed, vertex, iteration)]-keyed {!Randomness}, so any [par]
    yields bit-identical results too. [trace] (default
    {!Distsim.Trace.null}) receives the engine's round and send events
    plus one global ([vertex = -1]) {!phase_names} [Phase] marker per
    round (warm-up rounds are marked ["warmup"]).

    [adversary] (default none) injects faults into the run
    ({!Distsim.Engine.run}); under message loss the output may no
    longer be a valid 2-spanner — {!Resilience} measures how far off
    it lands. [retry] (default 1 = off) wraps the protocol in
    {!Distsim.Faults.with_retry}: every message is sent [retry] times
    and receivers keep the first copy per source, which costs
    bandwidth but survives a drop-[p] adversary with per-message loss
    [p^retry].

    [frugal] (default none) enables {!Distsim.Engine.run}'s
    message-frugality layer: identical consecutive re-sends are
    suppressed behind 2-bit markers and whole-neighborhood broadcasts
    route through collection trees, shrinking the {e physical} wire
    stream ([metrics.sent_physical] / [sent_bits]) while the spanner,
    round count and every logical metric stay bit-identical —
    {!Distsim.Engine.metrics_logical_eq} holds against the plain run
    under every scheduler and fault schedule.

    [active] (default: all vertices) runs the protocol on the
    induced subgraph [g[active]] via the engine's sparse activation
    ({!Distsim.Engine.run}): only the listed vertices (strictly
    ascending, in range) participate; each sees only its active
    neighbors but keeps its global identifier, so the vote randomness
    stays keyed exactly as in a full run. The result's [spanner] is a
    valid 2-spanner {e of the induced subgraph}, with edges named in
    global ids — the repair primitive {!Incremental} unions it into
    the surviving spanner. [max_rounds] defaults to
    [200 * (|active| + 20)]. Incompatible with [?frugal] (engine
    restriction); [?adversary] composes with it, as on {!Incremental}'s
    faulted ticks. *)

val run_weighted :
  ?seed:int ->
  ?max_rounds:int ->
  ?sched:Distsim.Engine.sched ->
  ?par:int ->
  ?adversary:Distsim.Adversary.t ->
  ?profile:Distsim.Profile.t ->
  ?frugal:Distsim.Frugal.t ->
  ?retry:int ->
  ?trace:Distsim.Trace.sink ->
  Ugraph.t ->
  Weights.t ->
  result
(** The weighted variant of Section 4.3.2 as a message-passing
    protocol, mirroring {!Weighted_two_spanner}'s engine configuration
    (weight-zero edges pre-added, no candidacy floor, per-vertex
    termination floors 1/wmax, terminated vertices excluded from the
    density maxima). Same seed, same spanner as the engine — the
    differential tests assert it. *)

val run_congest :
  ?seed:int ->
  ?max_rounds:int ->
  ?chunks_per_round:int ->
  ?sched:Distsim.Engine.sched ->
  ?par:int ->
  ?adversary:Distsim.Adversary.t ->
  ?profile:Distsim.Profile.t ->
  ?frugal:Distsim.Frugal.t ->
  ?retry:int ->
  ?audit:bool ->
  ?trace:Distsim.Trace.sink ->
  Ugraph.t ->
  result
(** The same protocol compiled to CONGEST with {!Distsim.Chunked}:
    messages fragment into O(log n)-bit chunks, each virtual round
    spending [chunks_per_round] (default [2Δ + 4]) real rounds — the
    O(Δ)-overhead direct implementation Section 1.3 discusses. Runs
    under an O(log n)-bit CONGEST model (c = 16, raised on tiny graphs
    so the 33-bit density halves always fit); produces the same spanner as {!run} and the
    engine for equal seeds, and its metrics expose the genuine
    compiled round count and chunk traffic.

    [adversary]/[retry]/[audit] are forwarded to
    {!Distsim.Chunked.run}: faults hit the chunk traffic (a single
    lost chunk corrupts its reassembly stream, so pair a lossy
    adversary with [retry]); [audit] raises
    {!Distsim.Chunked.Bandwidth_exceeded} on the first
    over-budget chunk instead of counting a violation. *)
