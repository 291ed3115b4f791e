open Grapho
module Iset = Set.Make (Int)

type t = {
  n : int;
  usable : Edge.Set.t;
  usable_adj : int array array;
  mutable spanner : Edge.Set.t;
  sp_adj : Iset.t array;
  mutable uncovered : Edge.Set.t;
  hv : Edge.Set.t array;
  incident : Edge.Set.t array;
}

let sorted_mem a x =
  let rec search lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = x then true
      else if a.(mid) < x then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length a)

(* Common usable-neighbors of u and w: iterate the smaller sorted
   adjacency, binary-search the larger. *)
let common_usable_neighbors t u w =
  let a, b =
    if Array.length t.usable_adj.(u) <= Array.length t.usable_adj.(w) then
      (t.usable_adj.(u), t.usable_adj.(w))
    else (t.usable_adj.(w), t.usable_adj.(u))
  in
  Array.fold_left (fun acc z -> if sorted_mem b z then z :: acc else acc) [] a

let create ~n ~targets ~usable =
  let deg = Array.make n 0 in
  Edge.Set.iter
    (fun e ->
      let u, w = Edge.endpoints e in
      if u < 0 || w >= n then invalid_arg "Cover2.create: vertex out of range";
      deg.(u) <- deg.(u) + 1;
      deg.(w) <- deg.(w) + 1)
    usable;
  let usable_adj = Array.init n (fun v -> Array.make deg.(v) 0) in
  let fill = Array.make n 0 in
  Edge.Set.iter
    (fun e ->
      let u, w = Edge.endpoints e in
      usable_adj.(u).(fill.(u)) <- w;
      fill.(u) <- fill.(u) + 1;
      usable_adj.(w).(fill.(w)) <- u;
      fill.(w) <- fill.(w) + 1)
    usable;
  Array.iter (fun a -> Array.sort compare a) usable_adj;
  let t =
    {
      n;
      usable;
      usable_adj;
      spanner = Edge.Set.empty;
      sp_adj = Array.make n Iset.empty;
      uncovered = targets;
      hv = Array.make n Edge.Set.empty;
      incident = Array.make n Edge.Set.empty;
    }
  in
  Edge.Set.iter
    (fun e ->
      let u, w = Edge.endpoints e in
      t.incident.(u) <- Edge.Set.add e t.incident.(u);
      t.incident.(w) <- Edge.Set.add e t.incident.(w);
      List.iter
        (fun z -> t.hv.(z) <- Edge.Set.add e t.hv.(z))
        (common_usable_neighbors t u w))
    targets;
  t

let n t = t.n
let spanner t = t.spanner
let uncovered t = t.uncovered
let uncovered_count t = Edge.Set.cardinal t.uncovered
let all_covered t = Edge.Set.is_empty t.uncovered
let hv t v = t.hv.(v)
let usable_neighbors t v = t.usable_adj.(v)
let uncovered_incident t v = t.incident.(v)

let covered_now t e =
  Edge.Set.mem e t.spanner
  ||
  let u, w = Edge.endpoints e in
  let a, b =
    if Iset.cardinal t.sp_adj.(u) <= Iset.cardinal t.sp_adj.(w) then
      (t.sp_adj.(u), t.sp_adj.(w))
    else (t.sp_adj.(w), t.sp_adj.(u))
  in
  Iset.exists (fun z -> Iset.mem z b) a

let add t edges ~dirty =
  let touched = ref Iset.empty in
  Edge.Set.iter
    (fun e ->
      if not (Edge.Set.mem e t.usable) then
        invalid_arg "Cover2.add: edge not usable";
      if not (Edge.Set.mem e t.spanner) then begin
        let u, w = Edge.endpoints e in
        t.spanner <- Edge.Set.add e t.spanner;
        t.sp_adj.(u) <- Iset.add w t.sp_adj.(u);
        t.sp_adj.(w) <- Iset.add u t.sp_adj.(w);
        touched := Iset.add u (Iset.add w !touched)
      end)
    edges;
  (* Any target covered by a brand-new 2-path has an endpoint incident
     to a new spanner edge, so rechecking incident uncovered targets of
     touched vertices is exhaustive. *)
  let candidates =
    Iset.fold
      (fun v acc -> Edge.Set.union acc t.incident.(v))
      !touched Edge.Set.empty
  in
  let dirtied = ref Iset.empty in
  Edge.Set.iter
    (fun e ->
      if Edge.Set.mem e t.uncovered && covered_now t e then begin
        let u, w = Edge.endpoints e in
        t.uncovered <- Edge.Set.remove e t.uncovered;
        t.incident.(u) <- Edge.Set.remove e t.incident.(u);
        t.incident.(w) <- Edge.Set.remove e t.incident.(w);
        List.iter
          (fun z ->
            t.hv.(z) <- Edge.Set.remove e t.hv.(z);
            dirtied := Iset.add z !dirtied)
          (common_usable_neighbors t u w)
      end)
    candidates;
  Iset.iter dirty !dirtied

let uncoverable_targets t =
  Edge.Set.filter
    (fun e ->
      let u, w = Edge.endpoints e in
      (not (Edge.Set.mem e t.usable)) && common_usable_neighbors t u w = [])
    t.uncovered
