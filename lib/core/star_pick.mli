(** Stars, densities, and the star-choice mechanism of Section 4.1.

    A [v]-star is a non-empty subset of edges between [v] and a subset
    of its (usable) neighbors; we represent it by the chosen neighbor
    set. Its density with respect to the uncovered set [H_v] is the
    number of [H_v]-edges 2-spanned, divided by the star's size (or
    weight, in the weighted variant).

    The weighted variant (Section 4.3.2) adds all weight-zero edges to
    the spanner up front, so every star implicitly contains the
    weight-zero star edges of its center: we model those neighbors as
    {e free}. An [H_v]-edge between a paying selection and a free
    neighbor is 2-spanned at no extra weight; an [H_v]-edge between two
    free neighbors is already covered before the first iteration and
    never appears.

    [extend] implements the greedy closure the paper prescribes: grow
    the star by single edges (paper: "if there is an edge e such that
    ρ(S ∪ {e}) ≥ ρ/4, add it") and by disjoint dense stars, as long as
    the threshold is respected. Restricting [allowed] to the previous
    star realizes the shrinking discipline that Claim 4.4 needs. *)

open Grapho

type t
(** The densest-star problem local to one center vertex. *)

val make :
  center:int ->
  neighbors:int array ->
  nodes:int array ->
  ?free:int array ->
  ?weight:(int -> float) ->
  hv:int array ->
  unit ->
  t
(** [neighbors] is a strictly ascending row of neighbors of [center]:
    the frame in which [hv] is written. [nodes] are the paying
    eligible neighbors and [free] the weight-zero ones, both drawn
    from [neighbors] and disjoint; the rest of the row is ineligible.
    [hv] lists the uncovered targets between two neighbors, each as
    the packed pair [lo * d + hi] of its endpoints' positions
    [lo < hi] in [neighbors] ([d] its length), strictly ascending —
    sorted and duplicate-free, which is the order of the targets as
    edges. Only targets joining two eligible (paying or free)
    neighbors matter. [weight v] is the cost of the star edge
    [{center, v}] for [v] in [nodes] (default 1) and must be positive.
    Raises [Invalid_argument] when [neighbors] is not strictly
    ascending, a paying or free vertex is missing from it, a free
    neighbor is also paying, a weight is not positive, or [hv] is not
    strictly ascending or holds a pair with [lo >= hi]. *)

val hv_of_edges : neighbors:int array -> Edge.Set.t -> int array
(** [hv_of_edges ~neighbors set] writes [set] in [make]'s [hv] frame,
    dropping edges with an endpoint outside [neighbors] (ascending). *)

val center : t -> int
val nodes : t -> int array

val density : t -> int list -> float
(** Density of the star selecting the given paying neighbors. The
    empty selection has density 0. *)

val spanned : t -> int list -> Edge.Set.t
(** [H_v]-edges 2-spanned by the star: both endpoints selected, or one
    selected and one free. *)

val spanned_count : t -> int list -> int
(** [Edge.Set.cardinal (spanned t selection)] without building the
    set: the star's gain, its spanned paying pairs plus the free
    bonus of each selected neighbor. The selection must be
    duplicate-free. *)

val densest : t -> (int list * float) option
(** Maximum-density star over all paying neighbors, from
    {!Netflow.Densest.densest_subset} (subset enumeration for at most
    12 paying neighbors, otherwise Goldberg's min-cut network under
    Dinkelbach's search); [None] when every star has density 0. *)

val densest_within : t -> allowed:int list -> (int list * float) option
(** Same, restricted to a subset of the paying neighbors. *)

val extend : t -> start:int list -> allowed:int list -> threshold:float ->
  int list
(** Greedy closure of Section 4.1: repeatedly add a single neighbor
    keeping density ≥ [threshold] (largest resulting density first),
    otherwise a disjoint star of density ≥ [threshold] drawn from
    [allowed], until neither exists. [start ⊆ allowed]. Returns the
    selection sorted. *)

val section_4_1_choice :
  t -> stored:(int list * int) option -> level:int -> divisor:float ->
  int list
(** The complete star-choice mechanism of Section 4.1 at rounded-
    density level [level] (threshold [2^level / divisor]): keep the
    stored star if it is still dense enough; otherwise shrink inside
    it (densest sub-star, then closure within it); on a fresh level
    start from the densest star and close over everything. Returns []
    when no positive-density star exists. [stored] pairs the previous
    selection with the level it was chosen at. *)

val rounded_exponent : float -> int option
(** [rounded_exponent rho] is the integer [k] with [2^(k-1) <= rho <
    2^k], i.e. the paper's rounding of a positive density to the
    closest power of two strictly above it is [2^k]; [None] for
    [rho <= 0]. *)

val pow2 : int -> float

val log2_ceil : int -> int
(** [log2_ceil x] is the least [k] with [2^k >= x]; 0 for [x <= 1]. *)
