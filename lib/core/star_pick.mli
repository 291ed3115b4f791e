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
  nodes:int array ->
  ?free:int array ->
  ?weight:(int -> float) ->
  hv_edges:Edge.Set.t ->
  unit ->
  t
(** [nodes] are the paying eligible neighbors of [center] and [free]
    the weight-zero ones (disjoint from [nodes]); [hv_edges] the
    uncovered targets, of which only those joining two eligible
    (paying or free) neighbors matter. [weight v] is the cost of the
    star edge [{center, v}] for [v] in [nodes] (default 1) and must be
    positive. *)

val center : t -> int
val nodes : t -> int array

val density : t -> int list -> float
(** Density of the star selecting the given paying neighbors. The
    empty selection has density 0. *)

val spanned : t -> int list -> Edge.Set.t
(** [H_v]-edges 2-spanned by the star: both endpoints selected, or one
    selected and one free. *)

val densest : t -> (int list * float) option
(** Maximum-density star over all paying neighbors, via parametric
    flow ({!Netflow.Densest}); [None] when every star has density 0. *)

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
