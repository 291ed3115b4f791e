open Grapho
module Iset = Set.Make (Int)

let adjacency_sets ~n set =
  let adj = Array.make n Iset.empty in
  Edge.Set.iter
    (fun e ->
      let u, w = Edge.endpoints e in
      adj.(u) <- Iset.add w adj.(u);
      adj.(w) <- Iset.add u adj.(w))
    set;
  adj

let middle_count_adj adj e =
  let u, w = Edge.endpoints e in
  let a, b =
    if Iset.cardinal adj.(u) <= Iset.cardinal adj.(w) then (adj.(u), adj.(w))
    else (adj.(w), adj.(u))
  in
  Iset.fold (fun z acc -> if Iset.mem z b then acc + 1 else acc) a 0

let middle_count ~n set e = middle_count_adj (adjacency_sets ~n set) e

let is_ft_2_spanner g ~f s =
  if f < 0 then invalid_arg "Fault_tolerant.is_ft_2_spanner: f < 0";
  let adj = adjacency_sets ~n:(Ugraph.n g) s in
  Ugraph.fold_edges
    (fun e acc ->
      acc && (Edge.Set.mem e s || middle_count_adj adj e >= f + 1))
    g true

type result = {
  spanner : Edge.Set.t;
  stars_added : int;
  singles_added : int;
}

let greedy g ~f =
  if f < 0 then invalid_arg "Fault_tolerant.greedy: f < 0";
  let n = Ugraph.n g in
  let h = ref Edge.Set.empty in
  let h_adj = Array.make n Iset.empty in
  let add_edge e =
    if not (Edge.Set.mem e !h) then begin
      let u, w = Edge.endpoints e in
      h := Edge.Set.add e !h;
      h_adj.(u) <- Iset.add w h_adj.(u);
      h_adj.(w) <- Iset.add u h_adj.(w)
    end
  in
  let satisfied e =
    Edge.Set.mem e !h || middle_count_adj h_adj e >= f + 1
  in
  (* Unsatisfied edges between neighbors of v to which v would be a new
     middle. *)
  let hv_of v =
    let nset =
      Ugraph.fold_neighbors (fun s u -> Iset.add u s) g v Iset.empty
    in
    Ugraph.fold_edges
      (fun e acc ->
        let u, w = Edge.endpoints e in
        if
          Iset.mem u nset && Iset.mem w nset
          && (not (satisfied e))
          && not (Iset.mem u h_adj.(v) && Iset.mem w h_adj.(v))
        then Edge.Set.add e acc
        else acc)
      g Edge.Set.empty
  in
  let stars_added = ref 0 and singles_added = ref 0 in
  let continue_loop = ref true in
  while !continue_loop do
    let unsatisfied =
      Ugraph.fold_edges
        (fun e acc -> if satisfied e then acc else e :: acc)
        g []
    in
    if unsatisfied = [] then continue_loop := false
    else begin
      (* Globally densest star, with already-bought star edges free. *)
      let best = ref None in
      for v = 0 to n - 1 do
        let hv = hv_of v in
        if not (Edge.Set.is_empty hv) then begin
          let paying = ref [] and free = ref [] in
          Ugraph.iter_neighbors
            (fun u ->
              if Iset.mem u h_adj.(v) then free := u :: !free
              else paying := u :: !paying)
            g v;
          let neighbors = Ugraph.neighbors g v in
          let prob =
            Star_pick.make ~center:v ~neighbors
              ~nodes:(Array.of_list (List.rev !paying))
              ~free:(Array.of_list (List.rev !free))
              ~hv:(Star_pick.hv_of_edges ~neighbors hv) ()
          in
          match Star_pick.densest prob with
          | Some (sel, d) when d > 0.0 -> (
              match !best with
              | Some (_, _, d') when d' >= d -> ()
              | _ -> best := Some (v, sel, d))
          | _ ->
              (* All gain may sit on free edges alone: then v is already
                 a middle-in-waiting through 0-cost edges; buy nothing
                 here, the edges will be handled elsewhere or singly. *)
              ()
        end
      done;
      match !best with
      | Some (v, sel, d) when d >= 1.0 ->
          incr stars_added;
          List.iter (fun u -> add_edge (Edge.make v u)) sel
      | _ ->
          (* No star pays for itself: buy the remaining edges. *)
          incr singles_added;
          List.iter add_edge unsatisfied
    end
  done;
  { spanner = !h; stars_added = !stars_added; singles_added = !singles_added }
