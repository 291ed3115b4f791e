(* Immutable directed simple graphs as three int-packed CSR
   adjacencies: out-edges, in-edges, and the underlying undirected
   topology (sorted, deduplicated union — distributed spanner
   algorithms communicate over it while covering directed edges).
   Same storage discipline as [Ugraph]: everything lives in off-heap
   Bigarrays, rows sorted ascending, O(1) degrees, allocation-free
   iteration and membership. *)

type t = {
  n : int;
  m : int;
  out_ptr : Bigcsr.ba;
  out_col : Bigcsr.ba;
  in_ptr : Bigcsr.ba;
  in_col : Bigcsr.ba;
  und_ptr : Bigcsr.ba;
  und_col : Bigcsr.ba;
}

let validate_vertex n u =
  if u < 0 || u >= n then
    invalid_arg (Printf.sprintf "Dgraph: vertex %d out of range [0,%d)" u n)

(* Build one CSR from [count] (lineno-free) pairs held in [us]/[vs].
   [both] scatters each pair in both directions (the undirected
   union); otherwise u -> v only. Rows are sorted and deduplicated in
   place. Returns (ptr, col, total). *)
let csr_of_pairs ~n ~count ~both us vs =
  let ptr = Bigcsr.create_zeroed (n + 1) in
  for i = 0 to count - 1 do
    let u = Bigarray.Array1.unsafe_get us i in
    Bigarray.Array1.unsafe_set ptr (u + 1)
      (Bigarray.Array1.unsafe_get ptr (u + 1) + 1);
    if both then begin
      let v = Bigarray.Array1.unsafe_get vs i in
      Bigarray.Array1.unsafe_set ptr (v + 1)
        (Bigarray.Array1.unsafe_get ptr (v + 1) + 1)
    end
  done;
  for u = 1 to n do
    Bigarray.Array1.unsafe_set ptr u
      (Bigarray.Array1.unsafe_get ptr u + Bigarray.Array1.unsafe_get ptr (u - 1))
  done;
  let slots = if both then 2 * count else count in
  let col = Bigcsr.create slots in
  let cursor = Bigcsr.create (max n 1) in
  if n > 0 then
    Bigarray.Array1.blit
      (Bigarray.Array1.sub ptr 0 n)
      (Bigarray.Array1.sub cursor 0 n);
  for i = 0 to count - 1 do
    let u = Bigarray.Array1.unsafe_get us i
    and v = Bigarray.Array1.unsafe_get vs i in
    let cu = Bigarray.Array1.unsafe_get cursor u in
    Bigarray.Array1.unsafe_set col cu v;
    Bigarray.Array1.unsafe_set cursor u (cu + 1);
    if both then begin
      let cv = Bigarray.Array1.unsafe_get cursor v in
      Bigarray.Array1.unsafe_set col cv u;
      Bigarray.Array1.unsafe_set cursor v (cv + 1)
    end
  done;
  let w = ref 0 in
  let lo = ref 0 in
  for u = 0 to n - 1 do
    let hi = Bigarray.Array1.unsafe_get ptr (u + 1) in
    Bigcsr.sort_range col !lo hi;
    Bigarray.Array1.unsafe_set ptr u !w;
    let prev = ref (-1) in
    for i = !lo to hi - 1 do
      let v = Bigarray.Array1.unsafe_get col i in
      if v <> !prev then begin
        Bigarray.Array1.unsafe_set col !w v;
        incr w;
        prev := v
      end
    done;
    lo := hi
  done;
  Bigarray.Array1.unsafe_set ptr n !w;
  let col =
    if !w = slots then col
    else begin
      let exact = Bigcsr.create !w in
      if !w > 0 then Bigarray.Array1.blit (Bigarray.Array1.sub col 0 !w) exact;
      exact
    end
  in
  (ptr, col, !w)

module Builder = struct

  type builder = {
    bn : int;
    us : Bigcsr.buf;
    vs : Bigcsr.buf;
    mutable finished : bool;
  }

  let create ?(expected_edges = 1024) ~n () =
    if n < 0 then invalid_arg "Dgraph.Builder.create: negative n";
    {
      bn = n;
      us = Bigcsr.buf_create expected_edges;
      vs = Bigcsr.buf_create expected_edges;
      finished = false;
    }

  let add_edge b u v =
    if b.finished then invalid_arg "Dgraph.Builder: already finished";
    validate_vertex b.bn u;
    validate_vertex b.bn v;
    if u = v then
      invalid_arg (Printf.sprintf "Dgraph: self-loop at vertex %d" u);
    Bigcsr.buf_push b.us u;
    Bigcsr.buf_push b.vs v

  let finish b =
    if b.finished then invalid_arg "Dgraph.Builder: already finished";
    b.finished <- true;
    let n = b.bn and len = b.us.Bigcsr.len in
    let us = b.us.Bigcsr.data and vs = b.vs.Bigcsr.data in
    (* The out-CSR merges duplicate directed edges; the in- and
       undirected CSRs are rebuilt from the deduplicated edge set so
       the three views agree on multiplicity. *)
    let out_ptr, out_col, m = csr_of_pairs ~n ~count:len ~both:false us vs in
    let du = Bigcsr.create (max m 1) and dv = Bigcsr.create (max m 1) in
    let k = ref 0 in
    let lo = ref 0 in
    for u = 0 to n - 1 do
      let hi = Bigarray.Array1.unsafe_get out_ptr (u + 1) in
      for i = !lo to hi - 1 do
        Bigarray.Array1.unsafe_set du !k u;
        Bigarray.Array1.unsafe_set dv !k (Bigarray.Array1.unsafe_get out_col i);
        incr k
      done;
      lo := hi
    done;
    (* Scattering v -> u pairs: in-rows pick up sources in ascending
       order (the pairs stream by ascending u), but sort anyway for
       uniformity — sorted input is the insertion sort's best case. *)
    let in_ptr, in_col, _ = csr_of_pairs ~n ~count:m ~both:false dv du in
    let und_ptr, und_col, _ = csr_of_pairs ~n ~count:m ~both:true du dv in
    { n; m; out_ptr; out_col; in_ptr; in_col; und_ptr; und_col }
end

let of_edge_iter ?expected_edges ~n iter =
  let b = Builder.create ?expected_edges ~n () in
  iter (fun u v -> Builder.add_edge b u v);
  Builder.finish b

let of_edge_set ~n set =
  of_edge_iter ~expected_edges:(Edge.Directed.Set.cardinal set) ~n (fun emit ->
      Edge.Directed.Set.iter (fun (u, v) -> emit u v) set)

let of_edges ~n edges =
  of_edge_iter ~n (fun emit ->
      List.iter
        (fun (u, v) ->
          (* [Edge.Directed.make] keeps the historical self-loop
             diagnostic *)
          let u, v = Edge.Directed.make u v in
          emit u v)
        edges)

let empty n = of_edge_iter ~expected_edges:0 ~n (fun _ -> ())
let n g = g.n
let m g = g.m

let row_len ptr u =
  Bigarray.Array1.get ptr (u + 1) - Bigarray.Array1.get ptr u

let out_degree g u = row_len g.out_ptr u
let in_degree g u = row_len g.in_ptr u

let row_array ptr col u =
  let lo = Bigarray.Array1.get ptr u and hi = Bigarray.Array1.get ptr (u + 1) in
  Array.init (hi - lo) (fun i -> Bigarray.Array1.unsafe_get col (lo + i))

let out_neighbors g u = row_array g.out_ptr g.out_col u

let iter_out_neighbors f g u =
  let lo = Bigarray.Array1.get g.out_ptr u
  and hi = Bigarray.Array1.get g.out_ptr (u + 1) in
  for i = lo to hi - 1 do
    f (Bigarray.Array1.unsafe_get g.out_col i)
  done

let undirected_neighbors g u = row_array g.und_ptr g.und_col u

let mem_edge g u v =
  if u = v then false
  else begin
    let lo = ref (Bigarray.Array1.get g.out_ptr u)
    and hi = ref (Bigarray.Array1.get g.out_ptr (u + 1)) in
    let found = ref false in
    while (not !found) && !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let y = Bigarray.Array1.unsafe_get g.out_col mid in
      if y = v then found := true else if y < v then lo := mid + 1 else hi := mid
    done;
    !found
  end

let iter_edges_uv f g =
  let lo = ref 0 in
  for u = 0 to g.n - 1 do
    let hi = Bigarray.Array1.unsafe_get g.out_ptr (u + 1) in
    for i = !lo to hi - 1 do
      f u (Bigarray.Array1.unsafe_get g.out_col i)
    done;
    lo := hi
  done

let iter_edges f g = iter_edges_uv (fun u v -> f (u, v)) g

let fold_edges f g init =
  let acc = ref init in
  iter_edges (fun e -> acc := f e !acc) g;
  !acc

let edges g = List.rev (fold_edges (fun e acc -> e :: acc) g [])
let edge_set g = fold_edges Edge.Directed.Set.add g Edge.Directed.Set.empty

let underlying g =
  Ugraph.of_edge_iter ~expected_edges:g.m ~n:g.n (fun emit ->
      iter_edges_uv emit g)

let resident_bytes g =
  8
  * (Bigarray.Array1.dim g.out_ptr + Bigarray.Array1.dim g.out_col
    + Bigarray.Array1.dim g.in_ptr + Bigarray.Array1.dim g.in_col
    + Bigarray.Array1.dim g.und_ptr + Bigarray.Array1.dim g.und_col)

let pp ppf g =
  Format.fprintf ppf "@[<hov 2>digraph(n=%d, m=%d:" g.n g.m;
  iter_edges (fun e -> Format.fprintf ppf "@ %a" Edge.Directed.pp e) g;
  Format.fprintf ppf ")@]"
