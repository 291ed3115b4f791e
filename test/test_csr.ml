(* CSR equivalence suite: the Bigarray CSR adjacency must behave
   exactly like the reference adjacency-list model across every
   constructor — same neighbors, degrees, membership, iteration
   order — plus the degenerate shapes, the seeded gnp/pa pins for the
   skip-sampling generators, and the builder's GC guard (streaming a
   10^5-vertex graph must not allocate per edge). *)

open Grapho

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Reference model: plain sorted, deduplicated adjacency lists built
   the naive way. *)
module Ref_model = struct
  type t = { rn : int; adj : int list array }

  let of_edges ~n edges =
    let adj = Array.make (max n 1) [] in
    List.iter
      (fun (u, v) ->
        adj.(u) <- v :: adj.(u);
        adj.(v) <- u :: adj.(v))
      edges;
    {
      rn = n;
      adj = Array.map (fun l -> List.sort_uniq compare l) adj;
    }

  let degree t u = List.length t.adj.(u)
  let neighbors t u = Array.of_list t.adj.(u)
  let mem_edge t u v = u <> v && List.mem v t.adj.(u)
  let m t =
    Array.fold_left (fun acc l -> acc + List.length l) 0
      (Array.sub t.adj 0 t.rn)
    / 2
end

(* Every constructor must produce the same graph. *)
let constructors ~n edges =
  let via_builder () =
    let b = Ugraph.Builder.create ~n () in
    List.iter (fun (u, v) -> Ugraph.Builder.add_edge b u v) edges;
    Ugraph.Builder.finish b
  in
  [
    ("of_edges", fun () -> Ugraph.of_edges ~n edges);
    ( "of_edge_set",
      fun () ->
        Ugraph.of_edge_set ~n
          (List.fold_left
             (fun s (u, v) -> Edge.Set.add (Edge.make u v) s)
             Edge.Set.empty edges) );
    ( "of_edge_iter",
      fun () ->
        Ugraph.of_edge_iter ~n (fun emit ->
            List.iter (fun (u, v) -> emit u v) edges) );
    ("builder", via_builder);
  ]

let assert_matches_reference name g r =
  let n = Ref_model.(r.rn) in
  check_int (name ^ ": n") n (Ugraph.n g);
  check_int (name ^ ": m") (Ref_model.m r) (Ugraph.m g);
  for u = 0 to n - 1 do
    check_int
      (Printf.sprintf "%s: degree %d" name u)
      (Ref_model.degree r u) (Ugraph.degree g u);
    Alcotest.(check (array int))
      (Printf.sprintf "%s: neighbors %d" name u)
      (Ref_model.neighbors r u) (Ugraph.neighbors g u);
    (* iter/fold must visit in the same ascending order as neighbors *)
    let via_iter = ref [] in
    Ugraph.iter_neighbors (fun v -> via_iter := v :: !via_iter) g u;
    Alcotest.(check (list int))
      (Printf.sprintf "%s: iter order %d" name u)
      (Array.to_list (Ref_model.neighbors r u))
      (List.rev !via_iter);
    let via_fold =
      Ugraph.fold_neighbors (fun acc v -> v :: acc) g u []
    in
    Alcotest.(check (list int))
      (Printf.sprintf "%s: fold order %d" name u)
      (Array.to_list (Ref_model.neighbors r u))
      (List.rev via_fold);
    for v = 0 to n - 1 do
      check
        (Printf.sprintf "%s: mem %d %d" name u v)
        (Ref_model.mem_edge r u v) (Ugraph.mem_edge g u v)
    done
  done;
  (* edges stream ascending-lexicographic with u < v *)
  let last = ref (-1, -1) in
  Ugraph.iter_edges_uv
    (fun u v ->
      check (name ^ ": u < v") true (u < v);
      check (name ^ ": ascending") true ((u, v) > !last);
      check (name ^ ": present") true (Ref_model.mem_edge r u v);
      last := (u, v))
    g;
  let count = Ugraph.fold_edges_uv (fun acc _ _ -> acc + 1) g 0 in
  check_int (name ^ ": edge stream length") (Ugraph.m g) count

let exercise ~name ~n edges =
  let r = Ref_model.of_edges ~n edges in
  let graphs =
    List.map (fun (c, f) -> (name ^ "/" ^ c, f ())) (constructors ~n edges)
  in
  List.iter (fun (cname, g) -> assert_matches_reference cname g r) graphs;
  (* all construction paths agree structurally *)
  (match graphs with
  | (_, first) :: rest ->
      List.iter
        (fun (cname, g) -> check (cname ^ ": equal") true (Ugraph.equal first g))
        rest
  | [] -> ());
  (* round-trip through induced_by_edges is the identity *)
  let _, g0 = List.hd graphs in
  check (name ^ ": induced id") true
    (Ugraph.equal g0 (Ugraph.induced_by_edges g0 (Ugraph.edge_set g0)))

let test_random_graphs () =
  let rng = Rng.create 0xC5A in
  for case = 0 to 19 do
    let n = 1 + Rng.int rng 24 in
    let target = Rng.int rng (1 + (n * (n - 1) / 2)) in
    let edges = ref [] in
    let k = ref 0 in
    while !k < target do
      let u = Rng.int rng n and v = Rng.int rng n in
      if u <> v then begin
        edges := (u, v) :: !edges;
        (* duplicates in both orientations stress the dedup *)
        if Rng.bool rng then edges := (v, u) :: !edges;
        incr k
      end
    done;
    exercise ~name:(Printf.sprintf "random%d" case) ~n !edges
  done

let test_edge_cases () =
  exercise ~name:"empty0" ~n:0 [];
  exercise ~name:"empty5" ~n:5 [];
  (* isolated vertices around a small component *)
  exercise ~name:"isolated" ~n:9 [ (2, 5); (5, 7); (2, 7) ];
  exercise ~name:"star" ~n:8 (List.init 7 (fun i -> (0, i + 1)));
  let complete_edges n =
    List.concat
      (List.init n (fun u -> List.init (n - u - 1) (fun i -> (u, u + i + 1))))
  in
  exercise ~name:"complete6" ~n:6 (complete_edges 6);
  check_int "empty n" 4 (Ugraph.n (Ugraph.empty 4));
  check_int "empty m" 0 (Ugraph.m (Ugraph.empty 4));
  check_int "resident empty0" 8 (Ugraph.resident_bytes (Ugraph.empty 0))

let test_validation () =
  let b = Ugraph.Builder.create ~n:3 () in
  check "range rejected" true
    (try
       Ugraph.Builder.add_edge b 0 3;
       false
     with Invalid_argument msg -> msg = "Ugraph: vertex 3 out of range [0,3)");
  check "self-loop rejected" true
    (try
       Ugraph.Builder.add_edge b 1 1;
       false
     with Invalid_argument msg -> msg = "Ugraph: self-loop at vertex 1");
  Ugraph.Builder.add_edge b 0 1;
  let g = Ugraph.Builder.finish b in
  check_int "one edge" 1 (Ugraph.m g);
  check "finished builder rejects" true
    (try
       Ugraph.Builder.add_edge b 1 2;
       false
     with Invalid_argument _ -> true)

let test_resident_bytes () =
  let g = Generators.complete 10 in
  (* 8 * (n + 1 + 2m) = 8 * (11 + 90) *)
  check_int "resident K10" (8 * 101) (Ugraph.resident_bytes g);
  check "dgraph resident positive" true
    (Dgraph.resident_bytes (Generators.bidirect g) > 0)

(* Seeded-equality pins for the skip-sampling generators: these
   fingerprints re-pin the bench gnp anchors after the switch from
   trial-per-pair sampling (satellite of PR 6), and pin that
   preferential attachment still samples the exact historical graphs
   (its Rng consumption was preserved through the pool rewrite). *)
let fingerprint g =
  Ugraph.fold_edges_uv (fun h u v -> (h * 1_000_003) + (u * 131) + v) g 0x9E37

let test_generator_pins () =
  let cases =
    [
      ("gnp_dense_100", Generators.gnp (Rng.create 2) 100 0.35,
       1743, 2235697293490807875);
      ("gnp_sparse_200", Generators.gnp (Rng.create 3) 200 0.05,
       970, -4291607970901585376);
      ("gnp_conn_50", Generators.gnp_connected (Rng.create 7) 50 0.1,
       156, 1492862353871756890);
      ("pa_200_10", Generators.preferential_attachment (Rng.create 4) 200 10,
       1900, 1272690548618341309);
    ]
  in
  List.iter
    (fun (name, g, m, fp) ->
      check_int (name ^ ": m") m (Ugraph.m g);
      check_int (name ^ ": fingerprint") fp (fingerprint g))
    cases;
  (* gnp degenerate probabilities consume no randomness *)
  check_int "p=0 empty" 0 (Ugraph.m (Generators.gnp (Rng.create 1) 30 0.0));
  check_int "p=1 complete" 435 (Ugraph.m (Generators.gnp (Rng.create 1) 30 1.0))

(* GC guard: streaming a 10^5-vertex graph through the builder must
   not allocate per edge on the OCaml heap — the endpoint buffers and
   the CSR itself live in Bigarrays. The ceiling is far below the
   ~6e5 words that even one boxed word per edge would cost, and far
   above the O(log m) buffer-doubling overhead. *)
let gc_guard_minor_words_ceiling = 50_000.0

let test_gc_guard () =
  let n = 100_000 in
  let before = Gc.minor_words () in
  let g =
    Ugraph.of_edge_iter ~expected_edges:(2 * n) ~n (fun emit ->
        for i = 0 to n - 2 do
          emit i (i + 1)
        done;
        for i = 0 to n - 1 do
          let j = (i + 97) mod n in
          if abs (i - j) > 1 then emit i j
        done)
  in
  let spent = Gc.minor_words () -. before in
  check_int "csr n" n (Ugraph.n g);
  check "csr built" true (Ugraph.m g > n);
  check
    (Printf.sprintf "minor words %.0f under ceiling %.0f" spent
       gc_guard_minor_words_ceiling)
    true
    (spent < gc_guard_minor_words_ceiling)

(* ------------------------------------------------------------------ *)
(* Batched deltas: [apply_delta] must agree with a from-scratch build
   of the edited edge list, under every buffer-reuse discipline. *)

let edges_of g = List.map Edge.endpoints (Ugraph.edges g)

(* Deterministic delta for a seeded graph: delete every [stride]-th
   edge, insert absent chords (u, u+gap). *)
let mk_delta ?(stride = 7) ?(ins = 15) g =
  let d = Ugraph.Delta.create () in
  let deleted = ref [] in
  let i = ref 0 in
  Ugraph.iter_edges_uv
    (fun u v ->
      if !i mod stride = 0 then begin
        Ugraph.Delta.add_delete d u v;
        deleted := (u, v) :: !deleted
      end;
      incr i)
    g;
  let n = Ugraph.n g in
  let inserted = ref [] in
  let gap = ref 2 in
  while List.length !inserted < ins && !gap < n do
    let u = 3 * List.length !inserted mod (n - !gap) in
    let v = u + !gap in
    if not (Ugraph.mem_edge g u v)
       && not (List.mem (u, v) !inserted)
    then begin
      Ugraph.Delta.add_insert d u v;
      inserted := (u, v) :: !inserted
    end
    else incr gap
  done;
  (d, !deleted, !inserted)

let scratch_apply g deleted inserted =
  let keep =
    List.filter (fun (u, v) -> not (List.mem (u, v) deleted)) (edges_of g)
  in
  Ugraph.of_edges ~n:(Ugraph.n g) (keep @ inserted)

let test_delta_equivalence () =
  let cases =
    [
      ("gnp80", Generators.gnp_connected (Rng.create 21) 80 0.08);
      ("pa100", Generators.preferential_attachment (Rng.create 22) 100 6);
      ("grid", Generators.grid 9 11);
      ("caveman", Generators.caveman (Rng.create 23) 6 7 0.1);
    ]
  in
  List.iter
    (fun (name, g) ->
      let d, deleted, inserted = mk_delta g in
      let expected = scratch_apply g deleted inserted in
      let fresh = Ugraph.apply_delta g d in
      check (name ^ ": fresh-builder") true (Ugraph.equal expected fresh);
      let b = Ugraph.Builder.create ~n:(Ugraph.n g) () in
      let reused = Ugraph.apply_delta ~builder:b g d in
      check (name ^ ": reused-builder") true (Ugraph.equal expected reused);
      (* The same builder again, as a churn tick would: apply the
         reverse delta to come back to g. *)
      let back = Ugraph.Delta.create () in
      List.iter (fun (u, v) -> Ugraph.Delta.add_insert back u v) deleted;
      List.iter (fun (u, v) -> Ugraph.Delta.add_delete back u v) inserted;
      let g2 = Ugraph.apply_delta ~builder:b fresh back in
      check (name ^ ": roundtrip") true (Ugraph.equal g g2))
    cases;
  (* Fingerprint pin: the edited graph, not just self-consistency. *)
  let g = Generators.gnp (Rng.create 2) 100 0.35 in
  let d, deleted, inserted = mk_delta ~stride:5 ~ins:20 g in
  let g' = Ugraph.apply_delta g d in
  check_int "pin: m" (Ugraph.m g - List.length deleted + List.length inserted)
    (Ugraph.m g');
  check_int "pin: fingerprint" 902360631607473347 (fingerprint g')

let test_delta_edge_cases () =
  let g = Generators.grid 5 5 in
  (* Empty delta is the identity (and [equal] is structural). *)
  let empty = Ugraph.Delta.create () in
  check "empty delta" true (Ugraph.equal g (Ugraph.apply_delta g empty));
  (* Delete every edge. *)
  let all = Ugraph.Delta.create () in
  Ugraph.iter_edges_uv (fun u v -> Ugraph.Delta.add_delete all u v) g;
  let bare = Ugraph.apply_delta g all in
  check_int "delete-all m" 0 (Ugraph.m bare);
  check_int "delete-all n" (Ugraph.n g) (Ugraph.n bare);
  (* Rejections: inserting a present edge, deleting an absent one,
     the same edge on both sides, the same edge twice on one side,
     out-of-range endpoints. Each must raise and leave no partial
     state ([g] is immutable anyway; assert it is untouched). *)
  let raises f =
    match f () with
    | (_ : Ugraph.t) -> false
    | exception Invalid_argument _ -> true
  in
  let with_delta adds = fun () ->
    let d = Ugraph.Delta.create () in
    adds d;
    Ugraph.apply_delta g d
  in
  check "insert present" true
    (raises (with_delta (fun d -> Ugraph.Delta.add_insert d 0 1)));
  check "delete absent" true
    (raises (with_delta (fun d -> Ugraph.Delta.add_delete d 0 24)));
  check "both sides" true
    (raises
       (with_delta (fun d ->
            Ugraph.Delta.add_delete d 0 1;
            Ugraph.Delta.add_insert d 1 0)));
  check "duplicate insert" true
    (raises
       (with_delta (fun d ->
            Ugraph.Delta.add_insert d 0 7;
            Ugraph.Delta.add_insert d 7 0)));
  check "duplicate delete" true
    (raises
       (with_delta (fun d ->
            Ugraph.Delta.add_delete d 0 1;
            Ugraph.Delta.add_delete d 1 0)));
  check "out of range" true
    (raises (with_delta (fun d -> Ugraph.Delta.add_insert d 0 99)));
  (match Ugraph.Delta.add_insert (Ugraph.Delta.create ()) 3 3 with
  | () -> Alcotest.fail "self-loop accepted"
  | exception Invalid_argument _ -> ());
  check "graph untouched" true (Ugraph.equal g (Generators.grid 5 5));
  (* Delta reset empties both sides but keeps accepting edges. *)
  let d = Ugraph.Delta.create () in
  Ugraph.Delta.add_delete d 0 1;
  Ugraph.Delta.add_insert d 0 24;
  Ugraph.Delta.reset d;
  check_int "reset deletes" 0 (Ugraph.Delta.deletes d);
  check_int "reset inserts" 0 (Ugraph.Delta.inserts d);
  check "reset then identity" true (Ugraph.equal g (Ugraph.apply_delta g d))

let test_slot_endpoints () =
  let g = Generators.gnp (Rng.create 31) 70 0.12 in
  let m2 = 2 * Ugraph.m g in
  for i = 0 to m2 - 1 do
    let u, v = Ugraph.slot_endpoints g i in
    check_int (Printf.sprintf "slot %d roundtrip" i) i (Ugraph.edge_slot g u v)
  done;
  (match Ugraph.slot_endpoints g m2 with
  | _ -> Alcotest.fail "slot out of range accepted"
  | exception Invalid_argument _ -> ())

let test_common_neighbors () =
  let g = Generators.gnp (Rng.create 32) 60 0.2 in
  let naive u v =
    List.filter (fun w -> Ugraph.mem_edge g v w)
      (Array.to_list (Ugraph.neighbors g u))
  in
  for u = 0 to 19 do
    for v = u + 1 to 20 do
      let expect = naive u v in
      let got = ref [] in
      Ugraph.iter_common_neighbors (fun w -> got := w :: !got) g u v;
      check (Printf.sprintf "common %d %d" u v) true
        (List.rev !got = expect);
      check_int
        (Printf.sprintf "first common %d %d" u v)
        (match expect with [] -> -1 | w :: _ -> w)
        (Ugraph.common_neighbor g u v)
    done
  done

(* GC guard for the churn path: 100 delta ticks over a 10^5-edge
   graph through one reused builder and one reused delta must stay
   allocation-flat — off-heap buffers reach steady-state capacity and
   the per-tick minor-heap cost is O(1) bookkeeping, not O(m) or even
   O(|delta|) boxing. Per-edge boxing would cost ~10^7 words over the
   loop; the ceiling is three orders of magnitude below that. *)
let test_churn_gc_guard () =
  let rows = 200 and cols = 250 in
  let g0 = Generators.grid rows cols in
  check "grid ~1e5 edges" true (Ugraph.m g0 > 99_000);
  let b = Ugraph.Builder.create ~expected_edges:(Ugraph.m g0)
      ~n:(Ugraph.n g0) () in
  let d = Ugraph.Delta.create ~expected:64 () in
  let g = ref g0 in
  (* Warm-up tick so every buffer reaches capacity before measuring. *)
  let batch tick add =
    (* 50 chords (i, i + 2*cols): never grid edges, distinct per
       batch index. *)
    let base = tick / 2 * 50 in
    for j = base to base + 49 do
      add d j (j + (2 * cols))
    done
  in
  Ugraph.Delta.reset d;
  batch 0 Ugraph.Delta.add_insert;
  g := Ugraph.apply_delta ~builder:b !g d;
  Ugraph.Delta.reset d;
  batch 1 Ugraph.Delta.add_delete;
  g := Ugraph.apply_delta ~builder:b !g d;
  let before = Gc.minor_words () in
  for tick = 0 to 99 do
    Ugraph.Delta.reset d;
    if tick mod 2 = 0 then batch tick Ugraph.Delta.add_insert
    else batch tick Ugraph.Delta.add_delete;
    g := Ugraph.apply_delta ~builder:b !g d
  done;
  let spent = Gc.minor_words () -. before in
  check "churn loop back to start" true (Ugraph.equal g0 !g);
  check
    (Printf.sprintf "churn minor words %.0f under ceiling" spent)
    true (spent < 50_000.0)

(* ------------------------------------------------------------------ *)
(* Row-merge property: [apply_delta] over random graphs and random valid
   delta streams equals a from-scratch build of the expected edge set,
   and every read API agrees with a list model of it — called with and
   without a [?builder] (one reused across the stream, which
   [apply_delta] ignores and must leave usable). The graphs include
   n = 1, isolated vertices and a star hub; the streams include empty
   deltas, whole-row deletions, inserts into empty rows and changes at
   vertices 0 and n - 1. Interleaved rejected deltas
   (one injected fault each) must raise the exact message and leave
   the graph and the builder usable. Every size is drawn from the
   seed, so a reported counterexample is a seed that replays it. *)

let random_edges rng n =
  let edges = ref Edge.Set.empty in
  let add u v =
    if u <> v then edges := Edge.Set.add (Edge.make u v) !edges
  in
  (match Rng.int rng 4 with
  | 0 ->
      let p = Rng.float rng 0.6 in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Rng.float rng 1.0 < p then add u v
        done
      done
  | 1 ->
      (* a star hub, plus a few stray edges *)
      let hub = [| 0; n - 1; Rng.int rng n |].(Rng.int rng 3) in
      for v = 0 to n - 1 do
        add hub v
      done;
      for _ = 1 to Rng.int rng 4 do
        add (Rng.int rng n) (Rng.int rng n)
      done
  | 2 ->
      (* sparse: most vertices isolated *)
      for _ = 1 to Rng.int rng (1 + (n / 3)) do
        add (Rng.int rng n) (Rng.int rng n)
      done
  | _ -> ());
  !edges

let all_pairs n =
  List.concat
    (List.init n (fun u ->
         List.init (n - u - 1) (fun i -> Edge.make u (u + 1 + i))))

(* One valid delta against [e]: returns (deletes, inserts). *)
let random_delta rng n e =
  let absent () =
    List.filter (fun x -> not (Edge.Set.mem x e)) (all_pairs n)
  in
  let pick l k =
    let a = Array.of_list l in
    Rng.shuffle rng a;
    Array.to_list (Array.sub a 0 (min k (Array.length a)))
  in
  let at_ends x =
    let u, v = Edge.endpoints x in
    u = 0 || v = n - 1
  in
  match Rng.int rng 5 with
  | 0 -> ([], [])
  | 1 ->
      (* delete a whole row, maybe re-wire it elsewhere *)
      let r = [| 0; n - 1; Rng.int rng n |].(Rng.int rng 3) in
      let row =
        Edge.Set.elements
          (Edge.Set.filter
             (fun x ->
               let u, v = Edge.endpoints x in
               u = r || v = r)
             e)
      in
      let ins =
        pick
          (List.filter
             (fun x ->
               let u, v = Edge.endpoints x in
               u <> r && v <> r)
             (absent ()))
          (Rng.int rng 3)
      in
      (row, ins)
  | 2 ->
      (* inserts into empty rows *)
      let empty_row u =
        not
          (Edge.Set.exists
             (fun x ->
               let a, b = Edge.endpoints x in
               a = u || b = u)
             e)
      in
      let ins =
        List.filter
          (fun x ->
            let u, v = Edge.endpoints x in
            empty_row u || empty_row v)
          (absent ())
      in
      ([], pick ins (1 + Rng.int rng 4))
  | 3 ->
      (* changes at vertices 0 and n - 1 *)
      ( pick (List.filter at_ends (Edge.Set.elements e)) (Rng.int rng 4),
        pick (List.filter at_ends (absent ())) (Rng.int rng 4) )
  | _ ->
      ( pick (Edge.Set.elements e) (Rng.int rng 6),
        pick (absent ()) (Rng.int rng 6) )

let mk_delta_of ~dels ~ins =
  let d = Ugraph.Delta.create ~expected:1 () in
  (* queue order and orientation are arbitrary; the merge must not care *)
  List.iter
    (fun x ->
      let u, v = Edge.endpoints x in
      Ugraph.Delta.add_delete d v u)
    dels;
  List.iter
    (fun x ->
      let u, v = Edge.endpoints x in
      Ugraph.Delta.add_insert d u v)
    ins;
  d

(* One valid delta plus one injected fault, drawn among the faults this
   delta admits (out-of-range always does), and the exact message the
   fault must raise. *)
let faulty_delta rng n e ~dels ~ins =
  let msg = Printf.sprintf in
  let uv x = Edge.endpoints x in
  let present =
    List.filter (fun x -> not (List.mem x dels)) (Edge.Set.elements e)
  and absent =
    List.filter
      (fun x -> not (Edge.Set.mem x e || List.mem x ins))
      (all_pairs n)
  in
  let faults =
    List.concat
      [
        (match dels with
        | x :: _ ->
            let u, v = uv x in
            [
              ( (fun d -> Ugraph.Delta.add_delete d u v),
                msg "Ugraph.apply_delta: duplicate delete (%d, %d)" u v );
              ( (fun d -> Ugraph.Delta.add_insert d v u),
                msg
                  "Ugraph.apply_delta: edge (%d, %d) both inserted and deleted"
                  u v );
            ]
        | [] -> []);
        (match ins with
        | x :: _ ->
            let u, v = uv x in
            [
              ( (fun d -> Ugraph.Delta.add_insert d v u),
                msg "Ugraph.apply_delta: duplicate insert (%d, %d)" u v );
            ]
        | [] -> []);
        (match absent with
        | x :: _ ->
            let u, v = uv x in
            [
              ( (fun d -> Ugraph.Delta.add_delete d u v),
                msg "Ugraph.apply_delta: deleted edge (%d, %d) absent" u v );
            ]
        | [] -> []);
        (match present with
        | x :: _ ->
            let u, v = uv x in
            [
              ( (fun d -> Ugraph.Delta.add_insert d u v),
                msg "Ugraph.apply_delta: inserted edge (%d, %d) already present"
                  u v );
            ]
        | [] -> []);
        [
          ( (fun d -> Ugraph.Delta.add_insert d (n - 1) (n + 2)),
            msg "Ugraph: vertex %d out of range [0,%d)" (n + 2) n );
        ];
      ]
  in
  let add, expected = List.nth faults (Rng.int rng (List.length faults)) in
  let d = mk_delta_of ~dels ~ins in
  add d;
  (d, expected)

(* Every read API of [g] against the list model of edge set [e]. The
   checks report through QCheck rather than Alcotest: a run makes
   millions of them, and Alcotest logs every check it passes. *)
let fail fmt = QCheck.Test.fail_reportf fmt

let agrees ~what n e g =
  let adj = Array.make n [] in
  Edge.Set.iter
    (fun x ->
      let u, v = Edge.endpoints x in
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    e;
  let adj = Array.map (List.sort compare) adj in
  if Ugraph.n g <> n || Ugraph.m g <> Edge.Set.cardinal e then
    fail "%s: n/m %d/%d, expected %d/%d" what (Ugraph.n g) (Ugraph.m g) n
      (Edge.Set.cardinal e);
  let slot = ref 0 in
  for u = 0 to n - 1 do
    if Ugraph.degree g u <> List.length adj.(u) then
      fail "%s: degree %d" what u;
    if Array.to_list (Ugraph.neighbors g u) <> adj.(u) then
      fail "%s: neighbors %d" what u;
    List.iter
      (fun v ->
        if Ugraph.edge_slot g u v <> !slot then
          fail "%s: edge_slot %d %d" what u v;
        if Ugraph.slot_endpoints g !slot <> (u, v) then
          fail "%s: slot_endpoints %d" what !slot;
        incr slot)
      adj.(u);
    for v = 0 to n - 1 do
      let expect = List.mem v adj.(u) in
      if Ugraph.mem_edge g u v <> expect then
        fail "%s: mem_edge %d %d" what u v;
      if (not expect) && Ugraph.edge_slot g u v <> -1 then
        fail "%s: edge_slot %d %d of a non-edge" what u v
    done
  done;
  let streamed = ref [] in
  Ugraph.iter_edges_uv (fun u v -> streamed := Edge.make u v :: !streamed) g;
  if List.rev !streamed <> Edge.Set.elements e then
    fail "%s: iter_edges_uv order" what;
  if not (Ugraph.equal (Ugraph.of_edge_set ~n e) g) then
    fail "%s: not equal to the rebuild" what

let raises_with d g ?builder expected ~what =
  match Ugraph.apply_delta ?builder g d with
  | _ -> fail "%s: rejected delta accepted" what
  | exception Invalid_argument got ->
      if got <> expected then
        fail "%s: raised %S, expected %S" what got expected

let prop_row_merge =
  QCheck.Test.make ~name:"apply_delta row merge = rebuild from edge set"
    ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let n = if Rng.int rng 8 = 0 then 1 else 1 + Rng.int rng 24 in
      let e = ref (random_edges rng n) in
      let g0 = Ugraph.of_edge_set ~n !e in
      let fresh = ref g0 and reused = ref g0 in
      let b = Ugraph.Builder.create ~expected_edges:(Rng.int rng 4) ~n () in
      for tick = 1 to 1 + Rng.int rng 6 do
        let dels, ins = random_delta rng n !e in
        if Rng.int rng 3 = 0 then begin
          let bad, expected = faulty_delta rng n !e ~dels ~ins in
          let what = Printf.sprintf "tick %d fault" tick in
          raises_with bad !fresh expected ~what;
          raises_with bad !reused ~builder:b expected ~what;
          agrees ~what:(what ^ ", graph after") n !e !reused
        end;
        let d = mk_delta_of ~dels ~ins in
        e :=
          List.fold_left (fun s x -> Edge.Set.add x s)
            (List.fold_left (fun s x -> Edge.Set.remove x s) !e dels)
            ins;
        fresh := Ugraph.apply_delta !fresh d;
        reused := Ugraph.apply_delta ~builder:b !reused d;
        agrees ~what:(Printf.sprintf "tick %d fresh" tick) n !e !fresh;
        agrees ~what:(Printf.sprintf "tick %d reused" tick) n !e !reused
      done;
      (* the builder still builds graphs of its own *)
      Ugraph.Builder.reset b ~n;
      Edge.Set.iter
        (fun x ->
          let u, v = Edge.endpoints x in
          Ugraph.Builder.add_edge b v u)
        !e;
      agrees ~what:"builder after the stream" n !e (Ugraph.Builder.finish b);
      true)

let () =
  Alcotest.run "csr"
    [
      ( "equivalence",
        [
          Alcotest.test_case "random graphs x constructors" `Quick
            test_random_graphs;
          Alcotest.test_case "edge cases" `Quick test_edge_cases;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "resident bytes" `Quick test_resident_bytes;
        ] );
      ( "generators",
        [ Alcotest.test_case "seeded pins" `Quick test_generator_pins ] );
      ( "delta",
        [
          Alcotest.test_case "scratch equivalence" `Quick
            test_delta_equivalence;
          Alcotest.test_case "edge cases" `Quick test_delta_edge_cases;
          Alcotest.test_case "slot endpoints" `Quick test_slot_endpoints;
          Alcotest.test_case "common neighbors" `Quick test_common_neighbors;
        ] );
      ( "merge",
        [
          QCheck_alcotest.to_alcotest prop_row_merge;
        ] );
      ( "gc",
        [
          Alcotest.test_case "builder minor words" `Quick test_gc_guard;
          Alcotest.test_case "churn loop minor words" `Quick
            test_churn_gc_guard;
        ] );
    ]
