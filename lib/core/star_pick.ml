open Grapho

(* Roles of a neighbor position: a paying position's role is its index
   in [nodes]. *)
let free_role = -1
let ineligible = -2

type t = {
  center : int;
  neighbors : int array;  (* ascending; the frame of [hv] *)
  nodes : int array;
  role : int array;
      (* per neighbor position: paying index, [free_role] or [ineligible] *)
  hv : int array;  (* packed position pairs, ascending *)
  weight : float array;
  edges : (int * int) array;
      (* hv edges between paying neighbors, by paying index, descending *)
  adj : int list array;  (* same, as adjacency *)
  bonus : float array;  (* hv edges from a paying index to a free neighbor *)
  unit_weight : bool;  (* every weight is 1 *)
  zero_bonus : bool;  (* every bonus is 0 *)
  mutable densest_memo : (int list * float) option option;
      (* cached [densest] answer; the problem is immutable after
         [make], so one flow solve serves every later query *)
}

(* Position of [v] in the ascending row [a], or -1. *)
let position a v =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < v then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length a && a.(!lo) = v then !lo else -1

let hv_of_edges ~neighbors edges =
  let d = Array.length neighbors in
  let keys =
    Edge.Set.fold
      (fun e acc ->
        let u, w = Edge.endpoints e in
        let i = position neighbors u and j = position neighbors w in
        if i >= 0 && j >= 0 then ((i * d) + j) :: acc else acc)
      edges []
  in
  Array.of_list (List.rev keys)

let make ~center ~neighbors ~nodes ?(free = [||]) ?(weight = fun _ -> 1.0) ~hv
    () =
  let d = Array.length neighbors in
  for p = 1 to d - 1 do
    if neighbors.(p - 1) >= neighbors.(p) then
      invalid_arg "Star_pick.make: neighbors not ascending"
  done;
  let k = Array.length nodes in
  let role = Array.make d ineligible in
  let position_exn v =
    let p = position neighbors v in
    if p < 0 then invalid_arg "Star_pick.make: node not a neighbor";
    p
  in
  Array.iteri (fun i v -> role.(position_exn v) <- i) nodes;
  Array.iter
    (fun v ->
      let p = position_exn v in
      if role.(p) >= 0 then
        invalid_arg "Star_pick.make: free neighbor also paying";
      role.(p) <- free_role)
    free;
  let weight_arr = Array.map weight nodes in
  Array.iter
    (fun w -> if w <= 0.0 then invalid_arg "Star_pick.make: weight <= 0")
    weight_arr;
  (* One pass over hv (ascending) conses the adjacency, counts the
     bonuses and the paying pairs; a second fills [edges] from the
     back, so the solver sees the pairs in descending order. *)
  let adj = Array.make k [] in
  let bonus = Array.make k 0.0 in
  let pairs = ref 0 and prev = ref (-1) in
  Array.iter
    (fun key ->
      if key <= !prev || key >= d * d || key / d >= key mod d then
        invalid_arg "Star_pick.make: hv not ascending position pairs";
      prev := key;
      let i = role.(key / d) and j = role.(key mod d) in
      if i >= 0 && j >= 0 then begin
        adj.(i) <- j :: adj.(i);
        adj.(j) <- i :: adj.(j);
        incr pairs
      end
      else if i >= 0 && j = free_role then bonus.(i) <- bonus.(i) +. 1.0
      else if j >= 0 && i = free_role then bonus.(j) <- bonus.(j) +. 1.0)
    hv;
  let edges = Array.make !pairs (0, 0) in
  let next = ref !pairs in
  Array.iter
    (fun key ->
      let i = role.(key / d) and j = role.(key mod d) in
      if i >= 0 && j >= 0 then begin
        decr next;
        edges.(!next) <- (i, j)
      end)
    hv;
  {
    center;
    neighbors;
    nodes;
    role;
    hv;
    weight = weight_arr;
    edges;
    adj;
    bonus;
    unit_weight = Array.for_all (fun w -> w = 1.0) weight_arr;
    zero_bonus = Array.for_all (fun b -> b = 0.0) bonus;
    densest_memo = None;
  }

let center t = t.center
let nodes t = t.nodes

let index t v =
  let p = position t.neighbors v in
  if p < 0 || t.role.(p) < 0 then
    invalid_arg "Star_pick: vertex not an eligible neighbor";
  t.role.(p)

let positions t selection = List.map (index t) selection

let selection_stats t selection =
  let ps = positions t selection in
  let inside = Array.make (Array.length t.nodes) false in
  List.iter (fun i -> inside.(i) <- true) ps;
  let spanned =
    Array.fold_left
      (fun acc (i, j) -> if inside.(i) && inside.(j) then acc + 1 else acc)
      0 t.edges
  in
  let weight = List.fold_left (fun acc i -> acc +. t.weight.(i)) 0.0 ps in
  let gain =
    float_of_int spanned
    +. List.fold_left (fun acc i -> acc +. t.bonus.(i)) 0.0 ps
  in
  (gain, weight)

let density t selection =
  if selection = [] then 0.0
  else
    let gain, weight = selection_stats t selection in
    gain /. weight

let spanned_count t selection =
  let gain, _ = selection_stats t selection in
  int_of_float gain

let spanned t selection =
  let inside = Array.make (Array.length t.nodes) false in
  List.iter (fun i -> inside.(i) <- true) (positions t selection);
  let d = Array.length t.neighbors in
  let picked i = i >= 0 && inside.(i) in
  Array.fold_left
    (fun acc key ->
      let lo = key / d and hi = key mod d in
      let i = t.role.(lo) and j = t.role.(hi) in
      if
        (picked i && (picked j || j = free_role))
        || (picked j && i = free_role)
      then Edge.Set.add (Edge.make t.neighbors.(lo) t.neighbors.(hi)) acc
      else acc)
    Edge.Set.empty t.hv

let densest_on t ~allowed_positions =
  (* Remap the restricted subproblem to a dense index space for the
     flow solver, keeping the edges in their order. *)
  let arr = Array.of_list allowed_positions in
  let k = Array.length arr in
  if k = 0 then None
  else begin
    let back = Array.make (Array.length t.nodes) (-1) in
    Array.iteri (fun small orig -> back.(orig) <- small) arr;
    let edges =
      Array.of_list
        (Array.fold_right
           (fun (i, j) acc ->
             if back.(i) >= 0 && back.(j) >= 0 then (back.(i), back.(j)) :: acc
             else acc)
           t.edges [])
    in
    let weights =
      if t.unit_weight then None
      else Some (Array.map (fun orig -> t.weight.(orig)) arr)
    in
    let bonuses =
      if t.zero_bonus then None
      else Some (Array.map (fun orig -> t.bonus.(orig)) arr)
    in
    match Netflow.Densest.densest_subset ?weights ?bonuses ~n:k ~edges () with
    | None -> None
    | Some (subset, d) ->
        Some (List.map (fun small -> t.nodes.(arr.(small))) subset, d)
  end

let densest t =
  match t.densest_memo with
  | Some memo -> memo
  | None ->
      let memo =
        densest_on t
          ~allowed_positions:(List.init (Array.length t.nodes) (fun i -> i))
      in
      t.densest_memo <- Some memo;
      memo

let densest_within t ~allowed =
  densest_on t ~allowed_positions:(positions t allowed)

let extend t ~start ~allowed ~threshold =
  let k = Array.length t.nodes in
  let inside = Array.make k false in
  let allowed_flag = Array.make k false in
  List.iter (fun i -> allowed_flag.(i) <- true) (positions t allowed);
  let selection = ref (positions t start) in
  List.iter
    (fun i ->
      if not allowed_flag.(i) then
        invalid_arg "Star_pick.extend: start not within allowed";
      inside.(i) <- true)
    !selection;
  let gain = ref 0.0 and weight = ref 0.0 in
  List.iter
    (fun i ->
      weight := !weight +. t.weight.(i);
      gain := !gain +. t.bonus.(i))
    !selection;
  Array.iter
    (fun (i, j) -> if inside.(i) && inside.(j) then gain := !gain +. 1.0)
    t.edges;
  let add_position i =
    inside.(i) <- true;
    selection := i :: !selection;
    weight := !weight +. t.weight.(i);
    gain := !gain +. t.bonus.(i);
    List.iter (fun j -> if inside.(j) then gain := !gain +. 1.0) t.adj.(i)
  in
  let progress = ref true in
  while !progress do
    progress := false;
    (* Best single addition keeping the density at or above the
       threshold. *)
    let best = ref None in
    for i = 0 to k - 1 do
      if allowed_flag.(i) && not inside.(i) then begin
        let inside_deg =
          List.fold_left
            (fun acc j -> if inside.(j) then acc + 1 else acc)
            0 t.adj.(i)
        in
        let extra = t.bonus.(i) +. float_of_int inside_deg in
        let d = (!gain +. extra) /. (!weight +. t.weight.(i)) in
        if d >= threshold then
          match !best with
          | Some (_, best_d) when best_d >= d -> ()
          | _ -> best := Some (i, d)
      end
    done;
    match !best with
    | Some (i, _) ->
        add_position i;
        progress := true
    | None -> (
        (* No single edge extends; look for a dense disjoint star. *)
        let remaining = ref [] in
        for i = k - 1 downto 0 do
          if allowed_flag.(i) && not inside.(i) then
            remaining := i :: !remaining
        done;
        match densest_on t ~allowed_positions:!remaining with
        | Some (vertices, d) when d >= threshold && vertices <> [] ->
            List.iter (fun v -> add_position (index t v)) vertices;
            progress := true
        | _ -> ())
  done;
  List.map (fun i -> t.nodes.(i)) (List.sort compare !selection)

let section_4_1_choice t ~stored ~level ~divisor =
  let threshold = Float.ldexp 1.0 level /. divisor in
  let fresh () =
    match densest t with
    | Some (sel, _) when sel <> [] ->
        extend t ~start:sel ~allowed:(Array.to_list t.nodes) ~threshold
    | _ -> []
  in
  match stored with
  | Some (star, star_level) when star_level = level && star <> [] ->
      if density t star >= threshold then star
      else begin
        match densest_within t ~allowed:star with
        | Some (inner, d) when d >= threshold ->
            extend t ~start:inner ~allowed:star ~threshold
        | _ ->
            (* Claim 4.4 proves this branch unreachable; fall back to a
               fresh choice defensively. *)
            fresh ()
      end
  | _ -> fresh ()

let rounded_exponent rho =
  if rho <= 0.0 then None
  else
    let _, e = Float.frexp rho in
    Some e

let pow2 k = Float.ldexp 1.0 k

let log2_ceil x =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) ((v + 1) / 2) in
  go 0 x
