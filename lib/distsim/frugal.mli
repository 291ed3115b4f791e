(** Message-frugality substrate: deterministic neighborhood-collection
    trees and physical-stream counters, after Bitton et al., "Message
    Reduction in the LOCAL Model is a Free Lunch" (arXiv:1909.08369).

    Passing a [t] to [Engine.run ?frugal] switches the engine's
    {e physical} accounting on: full-neighborhood broadcasts are
    charged as one tree publish plus one aggregated collect per
    reached receiver per round, and point-to-point re-sends of an
    unchanged payload are silenced by per-edge memoization (a
    one-time 2-bit [Again] marker arms the silence, a 2-bit [Eps]
    marker ends it). The {e logical} execution — deliveries, inbox
    contents, step schedule, adversary coin stream, the
    [messages]/[total_bits] metrics and the round series — is
    bit-identical with and without it; only
    [Engine.metrics.sent_physical]/[sent_bits] (and, when tracing,
    [Trace.round_stat.physical] and the [Send] event stream, which
    then describes physical traffic) differ.

    Construction is a pure function of [(graph, seed)]: each vertex
    adopts the member of its closed neighborhood with the smallest
    seeded hash as its hub, and every cluster gets a binary-heap tree
    over its members in ascending id order, so tree degrees never
    exceed 3 and two [create] calls with equal inputs agree exactly.

    All per-run payload-typed scratch lives in a {!stream}, created
    afresh by every [Engine.run]; a [t] is safely reused across runs
    and schedulers. The {!stats}
    counters accumulate across every run the value observes, like a
    [Profile.t]; use a fresh [t] per measurement. *)

type t

type mode =
  | Always  (** per-edge silence suppression armed from round 0 *)
  | Auto of int
      (** probe first: for the given number of rounds the per-edge
          machine only {e observes} (every direct send is charged at
          full size, so the physical stream is exactly the logical
          one on those edges — a 1.00x floor), counting how many
          sends repeat their previous-round payload and how many
          distinct silence runs those repeats form. At the end of the
          window suppression arms for the rest of the run iff
          [repeats > 2 * runs] — i.e. iff the average run is long
          enough that the [Again]/[Eps] marker pair costs fewer
          physical messages than the repeats it silences. Chunked
          CONGEST traffic, whose payload streams rarely repeat,
          thereby stays at parity instead of paying markers for
          nothing; broadcast suppression and the collection trees are
          unaffected (they never lose bits). The decision is made
          once per run on the merge thread, so it is deterministic
          across schedulers and shard counts. *)

val create : ?seed:int -> ?mode:mode -> Grapho.Ugraph.t -> t
(** Build the clustering and collection trees for [graph].
    Deterministic in [(graph, seed)]; O(n + m) time, O(n) space.
    [mode] (default {!Always}) selects the per-edge suppression
    policy; [Auto w] requires [w > 0] ([Invalid_argument]
    otherwise). *)

val default_seed : int

val default_auto_window : int
(** Observation rounds the CLI's [--frugal auto] uses (6). *)

val mode : t -> mode

val auto_window : t -> int
(** [Auto w]'s window, 0 under {!Always}. *)

val graph : t -> Grapho.Ugraph.t
(** The graph the trees were built for. [Engine.run] rejects a
    [frugal] value built for a different graph. *)

val seed : t -> int

(** {1 Tree structure} *)

val hub : t -> int -> int
(** [hub t v] is the cluster head [v] elected from its closed
    neighborhood — always [v] itself or one of its neighbors. *)

val tree_parent : t -> int -> int
(** Parent of [v] inside its cluster's collection tree, [-1] at the
    root (the cluster's smallest member id). *)

val tree_degree : t -> int -> int
(** Degree of [v] within its tree; at most 3 by construction. *)

val max_tree_degree : t -> int

val tree_count : t -> int
(** Number of non-empty clusters (= collection trees). *)

(** {1 Physical-stream counters}

    Maintained by the physical {!stream}; read them after a run for
    the frugality breakdown the bench reports. All deterministic. *)

val publishes : t -> int
(** Broadcast payloads injected into collection trees. *)

val collects : t -> int
(** Aggregated per-receiver, per-round tree deliveries. *)

val suppressed : t -> int
(** Sends silenced by the per-edge (or per-broadcast) memo. *)

val markers : t -> int
(** 2-bit [Again]/[Eps] control messages charged to arm and release
    silences. *)

val auto_armed : t -> int
(** Runs in which an [Auto] window decided to arm suppression. *)

val auto_disarmed : t -> int
(** Runs in which an [Auto] window decided to stay at parity. *)

(** {1 The per-run physical stream}

    [Engine.run ?frugal] creates one stream per run and hands it the
    physical side of every logical message it meters; user code
    normally never calls these. Every wire message the stream decides
    to send is reported through the [charge] callback as
    [charge src dst bits] ([src = -1] for an aggregated collect). *)

type 'msg stream

val stream :
  t ->
  charge:(int -> int -> int -> unit) ->
  blocked:(int -> int -> bool) ->
  'msg stream
(** Fresh per-run scratch for [t] on {!graph}[ t]. [blocked src dst]
    tells whether the link is crashed or cut this round; an
    end-of-silence marker is not charged over a blocked link. *)

val direct : 'msg stream -> round:int -> int -> int -> 'msg -> int -> unit
(** [direct s ~round src dst payload bits]: one reliably delivered
    point-to-point send, run through the per-edge silence machine. *)

val duplicate : 'msg stream -> round:int -> int -> int -> 'msg -> int -> unit
(** Both copies of an adversarially duplicated send, charged at full
    size; the edge's silence is released. *)

val drop : 'msg stream -> int -> int -> int -> unit
(** [drop s src dst bits]: a dropped send, charged at full size; the
    edge's silence memo is invalidated. *)

val is_broadcast :
  'msg stream -> int -> int array -> 'msg array -> lo:int -> hi:int -> bool
(** Whether the outbox segment [lo, hi) of sender [src] spells out its
    whole neighbor row with one physically shared payload. *)

val broadcast :
  'msg stream -> round:int -> int -> int array -> lo:int -> hi:int ->
  'msg -> int -> unit
(** The physical side of a segment {!is_broadcast} accepted: one tree
    publish (or silence) plus a collect mark per receiver. *)

val flush_round : 'msg stream -> round:int -> unit
(** End of round [round]: close an [Auto] window, pay the end-of-silence
    markers, and charge one aggregated collect per receiver. *)
