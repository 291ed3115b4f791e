open Grapho
module Dset = Edge.Directed.Set

type t = {
  ell : int;
  beta : int;
  inputs : Disjointness.t;
  graph : Dgraph.t;
  d_edges : Dset.t;
  bob_vertices : int list;
}

let x1 t i = assert (i < t.ell); i
let x2 t i = assert (i < t.ell); t.ell + i
let y1 t i = assert (i < t.ell); (2 * t.ell) + i
let y2 t i = assert (i < t.ell); (3 * t.ell) + i
let y3 t i = assert (i < t.ell); (4 * t.ell) + i
let x2v t i j = assert (i < t.ell && j < t.beta); (5 * t.ell) + (i * t.beta) + j

let y2v t i j =
  assert (i < t.ell && j < t.beta);
  (5 * t.ell) + (t.ell * t.beta) + (i * t.beta) + j

let n t = (5 * t.ell) + (2 * t.ell * t.beta)

let build ~ell ~beta inputs =
  if Disjointness.length inputs <> ell * ell then
    invalid_arg "Construction_g.build: inputs must have length ell^2";
  let shell =
    { ell; beta; inputs; graph = Dgraph.empty 0; d_edges = Dset.empty;
      bob_vertices = [] }
  in
  let edges = ref [] in
  let d_edges = ref Dset.empty in
  let add e = edges := e :: !edges in
  for i = 0 to ell - 1 do
    (* the matchings X1 -> Y1 *)
    add (x1 shell i, y1 shell i);
    add (x2 shell i, y2 shell i);
    (* Y2 -> Y3 links *)
    add (y2 shell i, y3 shell i);
    for j = 0 to beta - 1 do
      add (x2v shell i j, x1 shell i);
      add (y3 shell i, y2v shell i j)
    done
  done;
  (* The dense component D: complete bipartite X2 -> Y2. *)
  for i = 0 to ell - 1 do
    for j = 0 to beta - 1 do
      for r = 0 to ell - 1 do
        for s = 0 to beta - 1 do
          let e = (x2v shell i j, y2v shell r s) in
          add e;
          d_edges := Dset.add e !d_edges
        done
      done
    done
  done;
  (* Input-controlled optional edges. *)
  for i = 0 to ell - 1 do
    for j = 0 to ell - 1 do
      if not inputs.Disjointness.a.((i * ell) + j) then
        add (x1 shell i, x2 shell j);
      if not inputs.Disjointness.b.((i * ell) + j) then
        add (y1 shell i, y2 shell j)
    done
  done;
  let graph = Dgraph.of_edges ~n:(n shell) !edges in
  (* V_B = Y1, which per Figure 1 holds both rows y1_i and y2_i. *)
  let bob_vertices =
    List.init ell (fun i -> y1 shell i)
    @ List.init ell (fun i -> y2 shell i)
  in
  { shell with graph; d_edges = !d_edges; bob_vertices }

let cut_edges t =
  let bob = Array.make (n t) false in
  List.iter (fun v -> bob.(v) <- true) t.bob_vertices;
  Dgraph.fold_edges
    (fun (u, v) acc -> if bob.(u) <> bob.(v) then (u, v) :: acc else acc)
    t.graph []

let non_d_edges t =
  Dgraph.fold_edges
    (fun e acc -> if Dset.mem e t.d_edges then acc else Dset.add e acc)
    t.graph Dset.empty

let block_open t i r =
  (* Is one of the optional edges (x1_i, x2_r), (y1_i, y2_r) present? *)
  (not t.inputs.Disjointness.a.((i * t.ell) + r))
  || not t.inputs.Disjointness.b.((i * t.ell) + r)

let forced_d_edges t =
  let forced = ref Dset.empty in
  for i = 0 to t.ell - 1 do
    for r = 0 to t.ell - 1 do
      if not (block_open t i r) then
        for j = 0 to t.beta - 1 do
          for s = 0 to t.beta - 1 do
            forced := Dset.add (x2v t i j, y2v t r s) !forced
          done
        done
    done
  done;
  !forced

let oracle_spanner t = Dset.union (non_d_edges t) (forced_d_edges t)

let check_claim_2_2 t ~i ~r =
  let nn = n t in
  let sc = Traversal.scratch ~n:nn () in
  (* built once, not once per (j, s) probe *)
  let without_d =
    Traversal.out_edges (Dgraph.of_edge_set ~n:nn (non_d_edges t))
  in
  let ok = ref true in
  for j = 0 to t.beta - 1 do
    for s = 0 to t.beta - 1 do
      let src = x2v t i j and dst = y2v t r s in
      if block_open t i r then begin
        if Traversal.distance_within sc without_d ~bound:5 src dst > 5 then
          ok := false
      end
      else begin
        (* No path at all once the direct D-edge is removed. *)
        let all_but =
          { Traversal.n = nn;
            neighbors =
              (fun x f ->
                Dgraph.iter_out_neighbors
                  (fun y -> if x <> src || y <> dst then f y)
                  t.graph x) }
        in
        if Traversal.distance_within sc all_but ~bound:nn src dst <> max_int
        then ok := false
      end
    done
  done;
  !ok

let decide_disjointness t ~spanner ~alpha =
  let d_count = Dset.cardinal (Dset.inter spanner t.d_edges) in
  let threshold = alpha *. float_of_int (7 * t.ell * t.beta) in
  float_of_int d_count <= threshold

let decide_gap_disjointness t ~spanner ~alpha =
  let d_count = Dset.cardinal (Dset.inter spanner t.d_edges) in
  let threshold = alpha *. float_of_int (7 * t.ell * t.ell) in
  float_of_int d_count <= threshold

let params_randomized ~n' ~alpha =
  let c = 7 in
  let q = int_of_float (Float.ceil (alpha *. float_of_int c)) + 1 in
  let ell =
    int_of_float (Float.sqrt (float_of_int n' /. float_of_int (c * q)))
  in
  let ell = max 1 ell in
  (ell, q * ell)

let params_deterministic ~n' ~alpha =
  let c = 7 in
  let beta =
    int_of_float (Float.ceil (Float.sqrt (12.0 *. alpha *. float_of_int c)))
    + 1
  in
  let ell = max 1 (n' / (c * beta)) in
  (ell, beta)
