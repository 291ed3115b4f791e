open Grapho
module Dset = Edge.Directed.Set

type t = {
  ell : int;
  inputs : Disjointness.t;
  graph : Dgraph.t;
  weights : Weights.Directed.t;
  d_edges : Dset.t;
  bob_vertices : int list;
}

(* Vertex layout: x1_i = i, x2_i = ell+i, y1_i = 2ell+i, y2_i = 3ell+i,
   x_i = 4ell+i, y_i = 5ell+i. *)
let x1 ell i = assert (i < ell); i
let x2 ell i = assert (i < ell); ell + i
let y1 ell i = assert (i < ell); (2 * ell) + i
let y2 ell i = assert (i < ell); (3 * ell) + i
let xv ell i = assert (i < ell); (4 * ell) + i
let yv ell i = assert (i < ell); (5 * ell) + i

let n t = 6 * t.ell

let build ~ell inputs =
  if Disjointness.length inputs <> ell * ell then
    invalid_arg "Construction_gw.build: inputs must have length ell^2";
  let edges = ref [] and d_edges = ref Dset.empty in
  let add e = edges := e :: !edges in
  for i = 0 to ell - 1 do
    add (x1 ell i, y1 ell i);
    add (x2 ell i, y2 ell i);
    add (xv ell i, x1 ell i);
    add (y2 ell i, yv ell i);
    for j = 0 to ell - 1 do
      let e = (xv ell i, yv ell j) in
      add e;
      d_edges := Dset.add e !d_edges;
      if not inputs.Disjointness.a.((i * ell) + j) then
        add (x1 ell i, x2 ell j);
      if not inputs.Disjointness.b.((i * ell) + j) then
        add (y1 ell i, y2 ell j)
    done
  done;
  let graph = Dgraph.of_edges ~n:(6 * ell) !edges in
  let weights =
    Weights.Directed.of_list ~default:0.0
      (List.map (fun (u, v) -> (u, v, 1.0)) (Dset.elements !d_edges))
  in
  let bob_vertices =
    List.init ell (fun i -> y1 ell i) @ List.init ell (fun i -> y2 ell i)
  in
  { ell; inputs; graph; weights; d_edges = !d_edges; bob_vertices }

let cut_edges t =
  let bob = Array.make (n t) false in
  List.iter (fun v -> bob.(v) <- true) t.bob_vertices;
  Dgraph.fold_edges
    (fun (u, v) acc -> if bob.(u) <> bob.(v) then (u, v) :: acc else acc)
    t.graph []

let zero_weight_edges t =
  Dgraph.fold_edges
    (fun e acc ->
      if Weights.Directed.get t.weights e = 0.0 then Dset.add e acc else acc)
    t.graph Dset.empty

(* A zero-cost spanner exists iff the weight-0 edges alone cover every
   edge: covering any D-edge by itself would already cost 1. *)
let has_zero_cost_spanner t ~k =
  Spanner_core.Spanner_check.directed_uncovered_edges t.graph
    (zero_weight_edges t) ~k
  = []

let min_d_edges_needed t =
  let nn = n t in
  let zero =
    Traversal.out_edges (Dgraph.of_edge_set ~n:nn (zero_weight_edges t))
  in
  let sc = Traversal.scratch ~n:nn () in
  Dset.fold
    (fun (u, v) acc ->
      let d = Traversal.distance_within sc zero ~bound:nn u v in
      if d = max_int then acc + 1 else acc)
    t.d_edges 0

(* ------------------------------------------------------------------ *)

type undirected = {
  u_ell : int;
  u_k : int;
  u_inputs : Disjointness.t;
  u_graph : Ugraph.t;
  u_weights : Weights.t;
  u_d_edges : Edge.Set.t;
}

let build_undirected ~ell ~k inputs =
  if k < 4 then invalid_arg "Construction_gw.build_undirected: k < 4";
  if Disjointness.length inputs <> ell * ell then
    invalid_arg "Construction_gw.build_undirected: inputs length";
  (* First 6ℓ vertices as in Gw; then (k-4)ℓ path vertices. *)
  let path_len = k - 3 in
  let extra = (path_len - 1) * ell in
  let nb = (6 * ell) + extra in
  let path_vertex i step =
    (* step in 1 .. path_len-1 *)
    (6 * ell) + ((step - 1) * ell) + i
  in
  let edges = ref [] and d_edges = ref Edge.Set.empty in
  let add u v = edges := (u, v) :: !edges in
  for i = 0 to ell - 1 do
    add (x1 ell i) (y1 ell i);
    add (x2 ell i) (y2 ell i);
    add (xv ell i) (x1 ell i);
    (* weight-0 path of length k-3 from y2_i to y_i *)
    let rec lay prev step =
      if step = path_len then add prev (yv ell i)
      else begin
        let w = path_vertex i step in
        add prev w;
        lay w (step + 1)
      end
    in
    lay (y2 ell i) 1;
    for j = 0 to ell - 1 do
      add (xv ell i) (yv ell j);
      d_edges := Edge.Set.add (Edge.make (xv ell i) (yv ell j)) !d_edges;
      if not inputs.Disjointness.a.((i * ell) + j) then
        add (x1 ell i) (x2 ell j);
      if not inputs.Disjointness.b.((i * ell) + j) then
        add (y1 ell i) (y2 ell j)
    done
  done;
  let u_graph = Ugraph.of_edges ~n:nb !edges in
  let u_weights =
    Weights.of_list ~default:0.0
      (List.map
         (fun e ->
           let u, v = Edge.endpoints e in
           (u, v, 1.0))
         (Edge.Set.elements !d_edges))
  in
  { u_ell = ell; u_k = k; u_inputs = inputs; u_graph; u_weights;
    u_d_edges = !d_edges }

let undirected_has_zero_cost_spanner u =
  let zero =
    Ugraph.fold_edges
      (fun e acc ->
        if Weights.get u.u_weights e = 0.0 then Edge.Set.add e acc else acc)
      u.u_graph Edge.Set.empty
  in
  Spanner_core.Spanner_check.uncovered_edges u.u_graph zero ~k:u.u_k = []
