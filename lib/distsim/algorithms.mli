(** Small reference CONGEST algorithms: engine exercisers and the
    workload for the two-party simulation harness. *)

val flood_min_id :
  ?model:Model.t ->
  ?par:int ->
  ?frugal:Frugal.t ->
  Grapho.Ugraph.t ->
  int array * Engine.metrics
(** Every vertex learns the minimum identifier in its component by
    iterated neighborhood minima; terminates once its value is stable
    and so are its neighbors'. O(log n)-bit messages, O(diameter)
    rounds. [par] is forwarded to {!Engine.run}: the output is
    bit-identical for every domain count. [frugal] enables the
    message-frugality layer — the flood is broadcast-shaped, so its
    whole-row rebroadcasts ride the collection-tree fast path; results
    and logical metrics are unchanged. *)

type 'a state
(** A vertex's current value in the improving-value floods. *)

val flood_min_id_spec : Grapho.Ugraph.t -> (int state, int) Engine.spec
(** The engine spec {!flood_min_id} runs: each vertex broadcasts its
    id, then rebroadcasts its value whenever a smaller one arrives, and
    is [`Done] while none does. Messages are [O(log n)]-bit ids. Exposed
    so harnesses that run a spec themselves (the two-party cut meter)
    meter exactly this flood. *)

val bfs_distances :
  ?model:Model.t ->
  ?par:int ->
  ?frugal:Frugal.t ->
  root:int ->
  Grapho.Ugraph.t ->
  int array * Engine.metrics
(** Distributed BFS layering from [root]; unreachable vertices report
    [max_int]. *)

val luby_mis :
  ?seed:int -> ?model:Model.t -> Grapho.Ugraph.t -> bool array * Engine.metrics
(** Luby's maximal independent set: three rounds per phase (random
    values, joins, deaths), O(log n) phases w.h.p. The returned flags
    form an independent dominating set. *)

val maximal_matching :
  ?seed:int -> ?model:Model.t -> Grapho.Ugraph.t -> int array * Engine.metrics
(** Randomized proposal-based maximal matching (Israeli–Itai style);
    [mate.(v)] is the partner or [-1]. Both endpoints of a maximal
    matching form a 2-approximate vertex cover — the distributed route
    to MVC that Section 3's reduction plugs into. *)
