(* Incremental churn repair: per-tick validity against the fast
   checker (itself pinned to the BFS checker here), the tick's own
   local verdict and fault patching, determinism of the repaired
   spanner across schedulers and shard counts, and the engine's
   sparse-activation contract. *)

open Grapho
module C = Spanner_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let families =
  [
    ("gnp", fun s -> Generators.gnp_connected (Rng.create s) 70 0.08);
    ("pa", fun s -> Generators.preferential_attachment (Rng.create s) 80 5);
    ("caveman", fun s -> Generators.caveman (Rng.create s) 6 8 0.08);
  ]

(* ------------------------------------------------------------------ *)
(* Fast validity checker == BFS checker, on spanners and non-spanners. *)

let test_fast_checker () =
  List.iter
    (fun (name, mk) ->
      let g = mk 3 in
      let r = C.Two_spanner_local.run ~seed:9 g in
      check (name ^ ": protocol spanner fast-valid") true
        (C.Spanner_check.is_2_spanner_fast g r.spanner);
      check (name ^ ": agrees on spanner") true
        (C.Spanner_check.is_spanner g r.spanner ~k:2
        = C.Spanner_check.is_2_spanner_fast g r.spanner);
      (* Thin the spanner edge by edge until the checkers must say no;
         they must agree at every step. *)
      let s = ref r.spanner in
      let i = ref 0 in
      Edge.Set.iter
        (fun e ->
          incr i;
          if !i mod 3 = 0 then begin
            s := Edge.Set.remove e !s;
            check
              (Printf.sprintf "%s: agree after %d removals" name !i)
              true
              (C.Spanner_check.is_spanner g !s ~k:2
              = C.Spanner_check.is_2_spanner_fast g !s)
          end)
        r.spanner)
    families;
  (* Subset violation raises in both. *)
  let g = Generators.path 4 in
  let bogus = Edge.Set.singleton (Edge.make 0 3) in
  (match C.Spanner_check.is_2_spanner_fast g bogus with
  | _ -> Alcotest.fail "foreign edge accepted"
  | exception Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Sparse activation. *)

let test_active_full_set () =
  (* active = all vertices is the plain run, state for state. *)
  let g = Generators.gnp_connected (Rng.create 5) 50 0.12 in
  let act = Array.init (Ugraph.n g) Fun.id in
  let full = C.Two_spanner_local.run ~seed:11 g in
  let sparse = C.Two_spanner_local.run ~seed:11 ~active:act g in
  check "full-set spanner equal" true
    (Edge.Set.equal full.spanner sparse.spanner);
  check_int "full-set iterations" full.iterations sparse.iterations;
  check "full-set metrics" true
    (Distsim.Engine.metrics_deterministic_eq full.metrics sparse.metrics)

let test_active_subset () =
  let g = Generators.gnp_connected (Rng.create 6) 60 0.15 in
  (* An arbitrary subset; the protocol runs on the induced subgraph. *)
  let act = Array.of_list (List.init 25 (fun i -> 2 * i)) in
  let r = C.Two_spanner_local.run ~seed:7 ~active:act g in
  let member = Array.make (Ugraph.n g) false in
  Array.iter (fun v -> member.(v) <- true) act;
  let induced =
    Ugraph.of_edge_iter ~n:(Ugraph.n g) (fun emit ->
        Ugraph.iter_edges_uv
          (fun u v -> if member.(u) && member.(v) then emit u v)
          g)
  in
  Edge.Set.iter
    (fun e ->
      let u, v = Edge.endpoints e in
      check "spanner edge inside ball" true (member.(u) && member.(v)))
    r.spanner;
  check "valid on induced subgraph" true
    (C.Spanner_check.is_spanner induced r.spanner ~k:2);
  (* And identical to running the protocol on the induced subgraph
     directly (global ids coincide, so the vote streams do too). *)
  let direct = C.Two_spanner_local.run ~seed:7 induced in
  let direct_restricted =
    (* The direct run also covers the frozen vertices (isolated in
       [induced]), which add no edges; the spanners must coincide. *)
    direct.spanner
  in
  check "matches induced-subgraph run" true
    (Edge.Set.equal direct_restricted r.spanner)

let test_active_guards () =
  let g = Generators.path 6 in
  let expect_invalid name f =
    match f () with
    | (_ : C.Two_spanner_local.result) -> Alcotest.fail name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "descending active" (fun () ->
      C.Two_spanner_local.run ~active:[| 2; 1 |] g);
  expect_invalid "duplicate active" (fun () ->
      C.Two_spanner_local.run ~active:[| 1; 1 |] g);
  expect_invalid "out-of-range active" (fun () ->
      C.Two_spanner_local.run ~active:[| 4; 6 |] g);
  expect_invalid "frugal + active" (fun () ->
      C.Two_spanner_local.run
        ~frugal:(Distsim.Frugal.create g)
        ~active:[| 0; 1 |] g)

(* ------------------------------------------------------------------ *)
(* Churn traces: validity every tick, determinism across engines. *)

let run_trace ?sched ?par ?(each = fun _ -> ()) ~seed ~gseed ~ticks mk =
  let g = mk gseed in
  let inc, (_ : C.Two_spanner_local.result) =
    C.Incremental.bootstrap ~seed ?sched ?par g
  in
  let rng = Rng.create (seed lxor (31 * gseed)) in
  let d = Ugraph.Delta.create () in
  let replace = max 1 (Ugraph.m g / 50) in
  let stats = ref [] in
  for _ = 1 to ticks do
    C.Incremental.churn ~rng ~replace (C.Incremental.graph inc) d;
    let st = C.Incremental.apply ?sched ?par inc d in
    each inc;
    stats := st :: !stats
  done;
  (inc, List.rev !stats)

(* One fixed churn trace pinned value for value: the per-tick stats
   and a digest of the final spanner's edges. The values were recorded
   when the maintained spanner was an edge set, so they pin that the
   CSR representation changes no output. After every tick the held
   CSR must also be the canonical CSR of [spanner] and a subgraph of
   the graph. *)
let golden_stats =
  [
    "1 3 3 11 74 3 6 24 1 100";
    "2 3 3 11 65 3 5 24 1 103";
    "3 3 3 12 77 5 14 24 1 117";
    "4 3 3 11 70 2 4 24 1 117";
    "5 3 3 10 62 3 6 24 1 119";
    "6 3 3 11 73 4 9 24 1 128";
    "7 3 3 11 67 3 7 24 1 129";
    "8 3 3 9 64 3 6 24 1 131";
    "9 3 3 11 68 1 2 24 1 129";
    "10 3 3 11 71 2 3 24 1 130";
    "11 3 3 11 74 3 6 24 1 131";
    "12 3 3 12 79 5 9 24 1 139";
  ]

let golden_digest = "400f608794e1b9168e95fd3ef930b4f9"

let stats_line (st : C.Incremental.tick_stats) =
  Printf.sprintf "%d %d %d %d %d %d %d %d %d %d" st.tick st.deleted
    st.inserted st.seeds st.candidates st.broken st.dirty st.repair_rounds
    st.repair_iterations st.spanner_size

let edges_digest s =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map
             (fun e ->
               let u, v = Edge.endpoints e in
               Printf.sprintf "%d-%d" u v)
             (Edge.Set.elements s))))

let test_churn_golden () =
  let _, mk = List.nth families 2 in
  let each inc =
    let g = C.Incremental.graph inc and sg = C.Incremental.spanner_csr inc in
    let tick = C.Incremental.tick inc in
    check (Printf.sprintf "tick %d: held CSR canonical" tick) true
      (Ugraph.equal sg
         (Ugraph.of_edge_set ~n:(Ugraph.n g) (C.Incremental.spanner inc)));
    check (Printf.sprintf "tick %d: held CSR inside graph" tick) true
      (Ugraph.n sg = Ugraph.n g
      && Ugraph.fold_edges_uv (fun ok u v -> ok && Ugraph.mem_edge g u v) sg
           true)
  in
  let inc, stats = run_trace ~each ~seed:13 ~gseed:1 ~ticks:12 mk in
  Alcotest.(check (list string))
    "tick stats" golden_stats (List.map stats_line stats);
  Alcotest.(check string)
    "final spanner digest" golden_digest
    (edges_digest (C.Incremental.spanner inc))

let test_churn_validity () =
  List.iter
    (fun (name, mk) ->
      List.iter
        (fun gseed ->
          let inc, stats = run_trace ~seed:13 ~gseed ~ticks:6 mk in
          List.iter
            (fun (st : C.Incremental.tick_stats) ->
              check
                (Printf.sprintf "%s/%d tick %d sane" name gseed st.tick)
                true
                (st.deleted > 0 && st.inserted > 0
                && st.seeds > 0
                && st.candidates >= st.broken
                && (st.broken = 0 || st.dirty >= 2)))
            stats;
          (* The final fast verdict, and the final BFS verdict. *)
          check
            (Printf.sprintf "%s/%d final fast-valid" name gseed)
            true
            (C.Incremental.valid inc);
          check
            (Printf.sprintf "%s/%d final bfs-valid" name gseed)
            true
            (C.Spanner_check.is_spanner
               (C.Incremental.graph inc)
               (C.Incremental.spanner inc)
               ~k:2);
          check_int
            (Printf.sprintf "%s/%d ticks applied" name gseed)
            6 (C.Incremental.tick inc))
        [ 1; 2; 3 ])
    families

(* Every-tick validity (not just final): re-run one trace checking
   after each tick. *)
let test_churn_validity_per_tick () =
  let _, mk = List.hd families in
  let g = mk 4 in
  let inc, _ = C.Incremental.bootstrap ~seed:17 g in
  let rng = Rng.create 99 in
  let d = Ugraph.Delta.create () in
  for tick = 1 to 8 do
    C.Incremental.churn ~rng ~replace:5 (C.Incremental.graph inc) d;
    let st = C.Incremental.apply inc d in
    check_int (Printf.sprintf "tick %d number" tick) tick st.tick;
    check (Printf.sprintf "tick %d fast-valid" tick) true
      (C.Incremental.valid inc);
    check (Printf.sprintf "tick %d bfs-valid" tick) true
      (C.Spanner_check.is_spanner
         (C.Incremental.graph inc)
         (C.Incremental.spanner inc)
         ~k:2);
    check (Printf.sprintf "tick %d dirty covers broken" tick) true
      (st.broken = 0 || st.dirty > 0)
  done

let test_churn_determinism () =
  let _, mk = List.nth families 1 in
  let configs =
    [
      ("seq", None, None);
      ("par2", None, Some 2);
      ("par4", None, Some 4);
      ("naive", Some `Naive, None);
    ]
  in
  let runs =
    List.map
      (fun (name, sched, par) ->
        let inc, stats = run_trace ?sched ?par ~seed:23 ~gseed:2 ~ticks:5 mk in
        (name, C.Incremental.spanner inc, C.Incremental.graph inc, stats))
      configs
  in
  match runs with
  | [] -> assert false
  | (_, s0, g0, st0) :: rest ->
      List.iter
        (fun (name, s, g, st) ->
          check (name ^ ": same graph") true (Ugraph.equal g0 g);
          check (name ^ ": same spanner") true (Edge.Set.equal s0 s);
          check (name ^ ": same tick stats") true (st = st0))
        rest

(* Churn composed with a fault schedule: the ball-local repair runs
   under drops + a fraction crash. The repair can then terminate
   without covering every broken edge, and the tick inserts each such
   edge itself, so every tick still ends valid (both its own local
   verdict and the whole-graph check say so). The whole faulted
   trace — graph, spanner, tick stats and the per-tick verdict — is
   also bit-identical across engine schedulers and shard counts. *)
let test_churn_faulted_determinism () =
  let _, mk = List.nth families 1 in
  let schedule = "drop=0.05,crash=0.1@r3,seed=42" in
  let run_faulted ?sched ?par () =
    let g = mk 2 in
    let adversary =
      Distsim.Faults.compile ~n:(Ugraph.n g)
        (Result.get_ok (Distsim.Faults.parse schedule))
    in
    let inc, (_ : C.Two_spanner_local.result) =
      C.Incremental.bootstrap ~seed:23 ?sched ?par g
    in
    let rng = Rng.create 71 in
    let d = Ugraph.Delta.create () in
    let replace = max 1 (Ugraph.m g / 50) in
    let trace = ref [] in
    for _ = 1 to 5 do
      C.Incremental.churn ~rng ~replace (C.Incremental.graph inc) d;
      let st = C.Incremental.apply ?sched ?par ~adversary ~retry:2 inc d in
      let valid = C.Incremental.valid inc in
      check (Printf.sprintf "tick %d valid" st.tick) true (valid && st.valid);
      trace := (st, valid) :: !trace
    done;
    (C.Incremental.graph inc, C.Incremental.spanner inc, List.rev !trace)
  in
  let g0, s0, t0 = run_faulted () in
  List.iter
    (fun (name, sched, par) ->
      let g, s, t = run_faulted ?sched ?par () in
      check (name ^ ": same graph") true (Ugraph.equal g0 g);
      check (name ^ ": same spanner") true (Edge.Set.equal s0 s);
      check (name ^ ": same stats+verdicts") true (t = t0))
    [ ("par2", None, Some 2); ("naive", Some `Naive, None) ];
  (* The faulted trace exercised the fault machinery at all: at least
     one tick actually repaired something (else the adversary was
     never consulted and the test is vacuous). *)
  check "some tick repaired" true
    (List.exists (fun ((st : C.Incremental.tick_stats), _) -> st.broken > 0) t0)

(* ------------------------------------------------------------------ *)
(* The tick certifies itself: after every tick, faulted or not, the
   local verdict and the whole-graph check both read valid, and only a
   fault schedule makes the tick patch. Checks report through QCheck
   (see test_csr's "merge" property). *)

let fail fmt = QCheck.Test.fail_reportf fmt

let schedules =
  [|
    "";
    "drop=0.05,seed=5";
    "drop=0.05,crash=0.1@r3,seed=42";
    "crash=0.3@r2,seed=7";
    "drop=0.2,crash=0.5@r1,seed=11";
  |]

(* Deletes every edge at a random vertex, plus up to [ins] absent
   edges elsewhere. *)
let neighbourhood_delta rng g d ~ins =
  Ugraph.Delta.reset d;
  let n = Ugraph.n g in
  let x = Rng.int rng n in
  Ugraph.iter_neighbors (fun y -> Ugraph.Delta.add_delete d x y) g x;
  let chosen = ref [] in
  for _ = 1 to ins do
    let u = Rng.int rng n and v = Rng.int rng n in
    let e = (min u v, max u v) in
    if
      u <> v && u <> x && v <> x
      && (not (Ugraph.mem_edge g u v))
      && not (List.mem e !chosen)
    then begin
      chosen := e :: !chosen;
      Ugraph.Delta.add_insert d u v
    end
  done

(* Every size is drawn from the one seed, and there is no shrinker: a
   smaller seed is an unrelated case, not a simpler one. *)
let prop_certified =
  QCheck.Test.make ~name:"every tick ends valid and certifies itself"
    ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let g =
        if Rng.bool rng then
          Generators.gnp_connected rng (4 + Rng.int rng 50)
            (0.05 +. Rng.float rng 0.3)
        else
          Generators.caveman rng (2 + Rng.int rng 5) (3 + Rng.int rng 6)
            (Rng.float rng 0.2)
      in
      let sched = schedules.(Rng.int rng (Array.length schedules)) in
      let adversary =
        if sched = "" then None
        else
          Some
            (Distsim.Faults.compile ~n:(Ugraph.n g)
               (Result.get_ok (Distsim.Faults.parse sched)))
      in
      let retry = 1 + Rng.int rng 3 in
      let inc, (_ : C.Two_spanner_local.result) =
        C.Incremental.bootstrap ~seed g
      in
      let d = Ugraph.Delta.create () in
      for _ = 1 to 1 + Rng.int rng 8 do
        let g = C.Incremental.graph inc in
        (match Rng.int rng 4 with
        | 0 -> Ugraph.Delta.reset d
        | 1 -> neighbourhood_delta rng g d ~ins:(Rng.int rng 4)
        | _ ->
            (* at most half the absent edges, so insertions always fit *)
            let n = Ugraph.n g and m = Ugraph.m g in
            let absent = (n * (n - 1) / 2) - m in
            C.Incremental.churn ~rng
              ~replace:(Rng.int rng (1 + min (m / 5) (absent / 2)))
              g d);
        let st = C.Incremental.apply ?adversary ~retry inc d in
        let what = Printf.sprintf "[%s] tick %d" sched st.tick in
        if not st.valid then fail "%s: local verdict invalid" what;
        if
          not
            (C.Spanner_check.is_2_spanner_csr (C.Incremental.graph inc)
               ~spanner_csr:(C.Incremental.spanner_csr inc))
        then fail "%s: spanner invalid" what;
        if sched = "" && st.patched <> 0 then
          fail "%s: fault-free tick patched %d edges" what st.patched
      done;
      true)

(* A faulted trace that does reach the patch step: half the vertices
   crash at round 1 of every repair run, and a fifth of the messages
   are lost. *)
let test_patched_tick () =
  let g = Generators.caveman_n (Rng.create 12) 24 0.05 in
  let adversary =
    Distsim.Faults.compile ~n:(Ugraph.n g)
      (Result.get_ok (Distsim.Faults.parse "drop=0.2,crash=0.5@r1,seed=11"))
  in
  let inc, (_ : C.Two_spanner_local.result) =
    C.Incremental.bootstrap ~seed:1 g
  in
  let rng = Rng.create 5 in
  let d = Ugraph.Delta.create () in
  let patched = ref 0 in
  for _ = 1 to 10 do
    C.Incremental.churn ~rng ~replace:1 (C.Incremental.graph inc) d;
    let st = C.Incremental.apply ~adversary ~retry:3 inc d in
    patched := !patched + st.patched;
    check (Printf.sprintf "tick %d valid" st.tick) true
      (st.valid && C.Incremental.valid inc)
  done;
  check "some tick patched" true (!patched > 0)

let test_churn_generator () =
  let g = Generators.gnp_connected (Rng.create 8) 50 0.1 in
  let d = Ugraph.Delta.create () in
  C.Incremental.churn ~rng:(Rng.create 42) ~replace:7 g d;
  check_int "deletes" 7 (Ugraph.Delta.deletes d);
  check_int "inserts" 7 (Ugraph.Delta.inserts d);
  Ugraph.Delta.iter_deletes
    (fun u v -> check "delete exists" true (Ugraph.mem_edge g u v))
    d;
  Ugraph.Delta.iter_inserts
    (fun u v -> check "insert absent" true (not (Ugraph.mem_edge g u v)))
    d;
  (* Deterministic in the rng seed. *)
  let d2 = Ugraph.Delta.create () in
  C.Incremental.churn ~rng:(Rng.create 42) ~replace:7 g d2;
  check "seeded reproducibility" true
    (Ugraph.equal (Ugraph.apply_delta g d) (Ugraph.apply_delta g d2));
  (* Applies cleanly. *)
  let g' = Ugraph.apply_delta g d in
  check_int "m preserved" (Ugraph.m g) (Ugraph.m g')

let () =
  Alcotest.run "incremental"
    [
      ( "checker",
        [ Alcotest.test_case "fast == bfs" `Quick test_fast_checker ] );
      ( "active",
        [
          Alcotest.test_case "full set" `Quick test_active_full_set;
          Alcotest.test_case "subset" `Quick test_active_subset;
          Alcotest.test_case "guards" `Quick test_active_guards;
        ] );
      ( "churn",
        [
          Alcotest.test_case "traces valid" `Quick test_churn_validity;
          Alcotest.test_case "per-tick valid" `Quick
            test_churn_validity_per_tick;
          Alcotest.test_case "golden trace" `Quick test_churn_golden;
          Alcotest.test_case "determinism" `Quick test_churn_determinism;
          Alcotest.test_case "faulted determinism" `Quick
            test_churn_faulted_determinism;
          Alcotest.test_case "generator" `Quick test_churn_generator;
        ] );
      ( "certify",
        [
          QCheck_alcotest.to_alcotest prop_certified;
          Alcotest.test_case "patched tick" `Quick test_patched_tick;
        ] );
    ]
