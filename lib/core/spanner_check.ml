open Grapho

(* Every check here asks one question (Section 1.5): does the candidate
   hold a path of length at most k between the endpoints of an edge?
   The candidate enters as its own CSR, built once per call, and each
   question is one Traversal.search bounded at k on a shared
   epoch-stamped scratch — or, for k = 2, one sorted-row merge. *)

let spanner_csr = Ugraph.of_edge_set

let covers_edge_2 ~spanner_csr u v =
  Ugraph.mem_edge spanner_csr u v
  || Ugraph.common_neighbor spanner_csr u v >= 0

(* The stretch-k coverage predicate of the walked candidate. *)
let within (w : Traversal.walk) ~k =
  let sc = Traversal.scratch ~n:w.n () in
  fun u v -> Traversal.distance_within sc w ~bound:k u v <> max_int

let covers sg ~k =
  if k = 2 then covers_edge_2 ~spanner_csr:sg
  else within (Traversal.ugraph sg) ~k

(* Fold step collecting the uncovered edges, newest first. *)
let keep_uncovered endpoints covered e acc =
  let u, v = endpoints e in
  if covered u v then acc else e :: acc

let uncovered_of_targets ~n ~targets s ~k =
  Edge.Set.fold
    (keep_uncovered Edge.endpoints (covers (Ugraph.of_edge_set ~n s) ~k))
    targets []

(* [Ugraph.fold_edges] visits edges in [Edge.Set] order. *)
let uncovered_edges g s ~k =
  Ugraph.fold_edges
    (keep_uncovered Edge.endpoints
       (covers (Ugraph.of_edge_set ~n:(Ugraph.n g) s) ~k))
    g []

(* [covered] holds for every edge of [g]; stops at the first miss. *)
let covers_all g covered =
  try
    Ugraph.iter_edges_uv
      (fun u v -> if not (covered u v) then raise_notrace Exit)
      g;
    true
  with Exit -> false

let is_2_spanner_csr g ~spanner_csr = covers_all g (covers_edge_2 ~spanner_csr)
let is_spanner g s ~k = covers_all g (covers (Ugraph.induced_by_edges g s) ~k)

let is_spanner_of_targets ~n ~targets s ~k =
  uncovered_of_targets ~n ~targets s ~k = []

let is_2_spanner_fast g s = is_spanner g s ~k:2

(* Serving-path BFS: the daemon answers thousands of QUERYs per second
   against one resident spanner CSR, so the per-query cost must be the
   traversal and nothing else — the kernel's epoch-stamped scratch. *)
type query = Traversal.scratch

let query_create = Traversal.scratch

let query_path q sg ~u ~v =
  let n = Ugraph.n sg in
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg "Spanner_check.query_path: vertex out of range";
  if u = v then Some [ u ]
  else begin
    ignore
      (Traversal.search q (Traversal.ugraph sg) ~bound:max_int
         ~stop:(fun y -> y = v) u);
    Traversal.path q v
  end

let directed_uncovered_edges g s ~k =
  let n = Dgraph.n g in
  let covered = within (Traversal.out_edges (Dgraph.of_edge_set ~n s)) ~k in
  Dgraph.fold_edges (keep_uncovered Fun.id covered) g []

let is_directed_spanner g s ~k =
  Edge.Directed.Set.iter
    (fun (u, v) ->
      if not (Dgraph.mem_edge g u v) then
        invalid_arg
          "Spanner_check.is_directed_spanner: spanner edge not in graph")
    s;
  directed_uncovered_edges g s ~k = []

let iter_stretch g s f =
  let n = Ugraph.n g in
  Traversal.target_distances (Traversal.scratch ~n ())
    (Traversal.ugraph (Ugraph.of_edge_set ~n s))
    ~targets:(fun u emit ->
      Ugraph.iter_neighbors (fun v -> if v > u then emit v) g u)
    f

let directed_iter_stretch g s f =
  let n = Dgraph.n g in
  Traversal.target_distances (Traversal.scratch ~n ())
    (Traversal.out_edges (Dgraph.of_edge_set ~n s))
    ~targets:(fun u emit -> Dgraph.iter_out_neighbors emit g u)
    f

(* Stops at the first unspanned edge: its search has already walked
   a whole component. *)
let stretch g s =
  let worst = ref 0 in
  (try
     iter_stretch g s (fun d ->
         worst := max !worst d;
         if d = max_int then raise_notrace Exit)
   with Exit -> ());
  !worst
