(** Incremental 2-spanner repair under batched edge churn.

    Maintains a graph together with a valid stretch-2 spanner across
    {!Grapho.Ugraph.Delta} updates, re-running the Section 4 LOCAL
    protocol only on the {e dirty ball} around the update instead of
    the whole graph:

    + the delta is applied to the graph ({!Grapho.Ugraph.apply_delta},
      a row merge that copies untouched rows and merges changed
      ones);
    + a certificate sweep probes every surviving-graph edge incident
      to an update endpoint (the tick's {e candidates}) against the
      spanner that survives the delta, read off the pre-tick spanner
      CSR without building it. A locality lemma (proved in the
      implementation header) shows these are the only edges whose
      stretch-2 certificate can have broken, so the sweep is exact —
      clean regions are pruned without being visited;
    + the dirty ball [D] — broken edges' endpoints plus all their
      common surviving-graph neighbors — is repaired by
      {!Two_spanner_local.run}[ ~active:D] on the induced subgraph.
      The spanner's deleted edges and the repair edges not yet in it
      are applied to its CSR by one more
      {!Grapho.Ugraph.apply_delta}. Coverage is monotone in the edge
      set, so the union stays valid everywhere;
    + a broken edge the repair left uncovered (only a fault schedule
      can leave one) is inserted into the spanner directly, at the
      price of one more merge on that tick only;
    + the tick re-probes its candidates against the final spanner and
      reports the result as {!tick_stats.valid}: given a valid spanner
      before the tick, that local verdict equals a whole-graph check.

    The repaired spanner is generally {e not} the spanner a full
    recompute would produce (the protocol sees a different
    subproblem), but it is a valid 2-spanner of the updated graph
    after every tick, faulted or not, and the whole pipeline is
    deterministic in [(seed, initial graph, delta sequence, fault
    schedule)] — bit-identical across engine schedulers and [par]
    values, like the protocol itself.

    The certificate sweep, the ball re-run and the local verdict scale
    with the churn footprint (seed degrees plus dirty-ball size). The
    graph's delta application and the spanner's (one per tick, two on
    a patched tick, none when the tick leaves the spanner unchanged)
    are row merges: they sort only the delta, but still copy the
    untouched rows, so they are linear passes over [n + m] with a
    small constant, and per-tick cost still grows with [n] and [m].
    {!valid}, the whole-graph check, is not on the tick path; it is
    the independent audit of the CLI and the tests, and the induction
    base a daemon runs once per LOAD.
    [spanner_cli churn --recompute] prints the per-tick repair time
    next to a full recompute; perfbench [serve_mixed] times the tick
    stage by stage. *)

open Grapho

type t
(** Mutable repair state: current graph, current spanner (a CSR
    subgraph of it), tick counter, plus reused off-heap workspaces
    (the spanner's delta, mark bytes, seed/dirty vertex buffers and
    the broken-edge buffer) so steady-state ticks do not grow the
    heap. *)

type tick_stats = {
  tick : int;  (** 1-based tick this record describes *)
  deleted : int;  (** edges removed by the delta *)
  inserted : int;  (** edges added by the delta *)
  seeds : int;  (** distinct endpoints of changed edges *)
  candidates : int;  (** seed-incident edges certificate-probed *)
  broken : int;  (** of those, how many had lost their certificate *)
  dirty : int;  (** dirty-ball size |D| (0 when nothing broke) *)
  repair_rounds : int;  (** engine rounds of the ball-local re-run *)
  repair_iterations : int;  (** protocol iterations of the re-run *)
  spanner_size : int;  (** |S| after the tick *)
  patched : int;
      (** broken edges the repair left uncovered, inserted into the
          spanner directly; 0 on a fault-free tick *)
  valid : bool;
      (** the local verdict: every candidate is covered by the final
          spanner. Equal to {!valid} on the post-tick state when the
          spanner was valid before the tick. *)
}

val create : ?seed:int -> spanner:Edge.Set.t -> Ugraph.t -> t
(** Wrap an existing graph and a valid 2-spanner of it (validity is
    the caller's obligation — typically the output of a full
    protocol run; [spanner ⊆ graph] is checked, [Invalid_argument]
    otherwise). The spanner is converted to its CSR once, here.
    [seed] keys the repair runs' vote randomness. *)

val bootstrap :
  ?seed:int ->
  ?sched:Distsim.Engine.sched ->
  ?par:int ->
  ?trace:Distsim.Trace.sink ->
  Ugraph.t ->
  t * Two_spanner_local.result
(** Run the full protocol once and wrap its output — the
    tick-0 baseline of [spanner_cli churn] and of a daemon LOAD. [trace] observes the
    bootstrap run's engine events (the daemon's SUBSCRIBE hook). *)

val apply :
  ?sched:Distsim.Engine.sched ->
  ?par:int ->
  ?adversary:Distsim.Adversary.t ->
  ?retry:int ->
  ?trace:Distsim.Trace.sink ->
  t ->
  Ugraph.Delta.t ->
  tick_stats
(** One churn tick: apply the delta, find the broken certificates,
    repair the dirty ball, advance the tick counter. A rejected
    delta ({!Grapho.Ugraph.apply_delta}'s [Invalid_argument]) leaves
    the state untouched. [sched]/[par] configure the repair run's
    engine exactly as in {!Two_spanner_local.run}; the resulting
    spanner is bit-identical across all of them. [adversary]/[retry]
    subject the ball-local re-run to a fault schedule (churn + drops
    simultaneously — the PR 5 composition): the adversary's fraction
    crashes resolve over the full-graph [n] and its coin stream is
    consulted in merge order, so faulted ticks remain bit-identical
    across schedulers and [par] values too. Under crashes or drops
    the repair run can terminate without covering every broken edge;
    each such edge is then inserted into the spanner itself
    ({!tick_stats.patched}), so the tick still ends valid. [trace]
    observes the repair run's engine events; ticks that break nothing
    emit no events. *)

val graph : t -> Ugraph.t
(** The current (post-latest-tick) graph. *)

val spanner_csr : t -> Ugraph.t
(** The maintained spanner of {!graph} as the CSR the repair keeps —
    a subgraph of {!graph} on the same vertex set. The daemon's QUERY
    reads it. *)

val spanner : t -> Edge.Set.t
(** {!spanner_csr} as an edge set ({!Grapho.Ugraph.edge_set}): a
    conversion over every spanner edge, for callers outside the tick
    path. *)

val tick : t -> int
(** Ticks applied so far. *)

val valid : t -> bool
(** [Spanner_check.is_2_spanner_csr (graph t)
    ~spanner_csr:(spanner_csr t)] — one certificate probe per graph
    edge against the held CSR, no rebuild and no subset pass (the
    spanner is a subgraph by construction). The whole-graph audit:
    [spanner_cli churn] prints it beside each tick's local verdict,
    and a daemon LOAD runs it once as the base those verdicts rely
    on. *)

val churn : rng:Rng.t -> replace:int -> Ugraph.t -> Ugraph.Delta.t -> unit
(** [churn ~rng ~replace g d] resets [d] and fills it with [replace]
    uniform deletions of existing edges of [g] (capped at [m]) plus
    [replace] uniform insertions of absent non-loop edges, all drawn
    from [rng] — the seeded churn traces of [spanner_cli churn],
    perfbench and the tests.
    Raises [Invalid_argument] if the graph is too dense to place the
    insertions. *)
