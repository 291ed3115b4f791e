(* Tests for the synchronous message-passing engine and its models. *)

open Grapho

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A spec where each vertex sends its id once and records its inbox. *)
type echo_state = { mutable seen : (int * int) list }

let echo_spec graph =
  {
    Distsim.Engine.init =
      (fun ~n:_ ~vertex ~neighbors ~out ->
        Array.iter
          (fun u -> Distsim.Engine.emit out ~dst:u vertex)
          neighbors;
        { seen = [] });
    step =
      (fun ~round:_ ~vertex:_ st inbox ~out:_ ->
        let heard =
          List.rev
            (Distsim.Engine.inbox_fold
               (fun acc ~src msg -> (src, msg) :: acc)
               [] inbox)
        in
        st.seen <- st.seen @ heard;
        (st, `Done));
    measure =
      (fun _ -> Distsim.Message.bits_for_id ~n:(max 2 (Ugraph.n graph)));
  }

let test_delivery_next_round () =
  let g = Generators.cycle 5 in
  let states, metrics =
    Distsim.Engine.run ~model:Distsim.Model.local ~graph:g (echo_spec g)
  in
  Array.iteri
    (fun v st ->
      let senders = List.map fst st.seen |> List.sort compare in
      Alcotest.(check (list int))
        "each vertex hears both neighbors"
        (Array.to_list (Ugraph.neighbors g v))
        senders;
      List.iter
        (fun (src, payload) -> check_int "payload is sender id" src payload)
        st.seen)
    states;
  check_int "messages" 10 metrics.messages

(* Inboxes are insertion-ordered buffers: senders step (and the
   parallel merge replays them) in ascending id, so entries arrive
   sorted by source under both wake rules and any shard count. *)
let test_inbox_sorted_by_source () =
  let g = Generators.star 6 in
  List.iter
    (fun (sched, par) ->
      let states, _ =
        Distsim.Engine.run ~sched ~par ~model:Distsim.Model.local ~graph:g
          (echo_spec g)
      in
      let sources = List.map fst states.(0).seen in
      check_int "center hears every leaf" (Ugraph.degree g 0)
        (List.length sources);
      check "sorted" true (List.sort compare sources = sources))
    [ (`Active, 1); (`Active, 2); (`Naive, 1) ]

let test_send_to_non_neighbor_rejected () =
  let g = Generators.path 3 in
  let bad =
    {
      Distsim.Engine.init =
        (fun ~n:_ ~vertex ~neighbors:_ ~out ->
          if vertex = 0 then Distsim.Engine.emit out ~dst:2 0);
      step = (fun ~round:_ ~vertex:_ () _ ~out:_ -> ((), `Done));
      measure = (fun _ -> 1);
    }
  in
  check "raises" true
    (try
       ignore (Distsim.Engine.run ~model:Distsim.Model.local ~graph:g bad);
       false
     with Invalid_argument _ -> true)

let test_max_rounds_guard () =
  let g = Generators.path 2 in
  (* A spec that never terminates must hit the round guard. *)
  let forever =
    {
      Distsim.Engine.init =
        (fun ~n:_ ~vertex:_ ~neighbors ~out ->
          Array.iter (fun u -> Distsim.Engine.emit out ~dst:u 0) neighbors);
      step =
        (fun ~round:_ ~vertex st _ ~out ->
          Array.iter
            (fun u -> Distsim.Engine.emit out ~dst:u 0)
            (Ugraph.neighbors g vertex);
          (st, `Continue));
      measure = (fun _ -> 1);
    }
  in
  check "fails" true
    (try
       ignore
         (Distsim.Engine.run ~max_rounds:10 ~model:Distsim.Model.local
            ~graph:g forever);
       false
     with Failure _ -> true)

let test_congest_violation_counted () =
  let g = Generators.path 2 in
  let fat =
    {
      Distsim.Engine.init =
        (fun ~n:_ ~vertex:_ ~neighbors ~out ->
          Array.iter (fun u -> Distsim.Engine.emit out ~dst:u 0) neighbors);
      step = (fun ~round:_ ~vertex:_ st _ ~out:_ -> (st, `Done));
      measure = (fun _ -> 10_000);
    }
  in
  let _, metrics =
    Distsim.Engine.run
      ~model:(Distsim.Model.congest ~n:2 ())
      ~graph:g fat
  in
  check_int "violations" 2 metrics.congest_violations;
  check "strict raises" true
    (try
       ignore
         (Distsim.Engine.run ~strict:true
            ~model:(Distsim.Model.congest ~n:2 ())
            ~graph:g fat);
       false
     with Distsim.Engine.Congest_violation _ -> true)

let test_metrics_bits () =
  let g = Generators.path 2 in
  let _, metrics =
    Distsim.Engine.run ~model:Distsim.Model.local ~graph:g (echo_spec g)
  in
  check_int "total bits" (2 * Distsim.Message.bits_for_id ~n:2)
    metrics.total_bits;
  check_int "max bits" (Distsim.Message.bits_for_id ~n:2)
    metrics.max_message_bits

let test_empty_graph () =
  let g = Ugraph.empty 0 in
  let _, metrics =
    Distsim.Engine.run ~model:Distsim.Model.local ~graph:g (echo_spec g)
  in
  check_int "no rounds needed" 0 metrics.rounds

(* ------------------------------------------------------------------ *)
(* Models and messages *)

let test_model_bandwidth () =
  check "local unlimited" true
    (Distsim.Model.bandwidth Distsim.Model.local = None);
  (match Distsim.Model.bandwidth (Distsim.Model.congest ~n:1000 ()) with
  | Some b -> check "O(log n)" true (b >= 10 && b <= 80)
  | None -> Alcotest.fail "congest must bound messages")

let test_message_bits () =
  check_int "id bits 8" 4 (Distsim.Message.bits_for_id ~n:8);
  check_int "id bits 1" 1 (Distsim.Message.bits_for_id ~n:1);
  check_int "list" 6
    (Distsim.Message.bits_list (fun _ -> 2) [ 1; 2; 3 ]);
  check_int "option none" 1 (Distsim.Message.bits_option (fun _ -> 5) None);
  check_int "option some" 6
    (Distsim.Message.bits_option (fun _ -> 5) (Some 1))

(* ------------------------------------------------------------------ *)
(* Reference algorithms *)

let test_flood_min_id () =
  let g = Generators.gnp_connected (Rng.create 3) 40 0.1 in
  let values, metrics = Distsim.Algorithms.flood_min_id g in
  Array.iter (fun v -> check_int "everyone learns 0" 0 v) values;
  check "rounds at most diameter+2" true
    (metrics.rounds <= Traversal.diameter g + 2);
  check_int "congest ok" 0 metrics.congest_violations

let test_flood_two_components () =
  let g = Ugraph.of_edges ~n:5 [ (0, 1); (2, 3); (3, 4) ] in
  let values, _ = Distsim.Algorithms.flood_min_id g in
  check_int "first comp" 0 values.(1);
  check_int "second comp" 2 values.(4)

let test_bfs_matches_centralized () =
  let g = Generators.gnp_connected (Rng.create 9) 30 0.15 in
  let values, _ = Distsim.Algorithms.bfs_distances ~root:0 g in
  let reference = Traversal.bfs_distances g 0 in
  Alcotest.(check (array int)) "distances agree" reference values

let prop_flood_always_min =
  QCheck.Test.make ~name:"flooding computes component minima" ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      let g = Generators.gnp (Rng.create seed) 20 0.1 in
      let values, _ = Distsim.Algorithms.flood_min_id g in
      let comp = Traversal.components g in
      let minimum = Hashtbl.create 8 in
      Array.iteri
        (fun v c ->
          let cur = Option.value ~default:max_int (Hashtbl.find_opt minimum c) in
          if v < cur then Hashtbl.replace minimum c v)
        comp;
      Array.for_all
        (fun v -> values.(v) = Hashtbl.find minimum comp.(v))
        (Array.init 20 (fun i -> i)))

(* ------------------------------------------------------------------ *)
(* MIS and maximal matching *)

let mis_families =
  [
    ("path_30", Generators.path 30);
    ("gnp_80", Generators.gnp_connected (Rng.create 4) 80 0.1);
    ("star_25", Generators.star 25);
    ("complete_20", Generators.complete 20);
    ("grid_6x6", Generators.grid 6 6);
  ]

let check_mis g mis =
  let independent =
    Ugraph.fold_edges
      (fun e acc ->
        let u, v = Edge.endpoints e in
        acc && not (mis.(u) && mis.(v)))
      g true
  in
  let maximal = ref true in
  for v = 0 to Ugraph.n g - 1 do
    if
      (not mis.(v))
      && not (Array.exists (fun u -> mis.(u)) (Ugraph.neighbors g v))
    then maximal := false
  done;
  independent && !maximal

let test_luby_mis_valid () =
  List.iter
    (fun (name, g) ->
      let mis, metrics = Distsim.Algorithms.luby_mis ~seed:7 g in
      check (name ^ " independent+maximal") true (check_mis g mis);
      check_int (name ^ " congest ok") 0 metrics.congest_violations)
    mis_families

let test_luby_mis_complete_singleton () =
  let g = Generators.complete 15 in
  let mis, _ = Distsim.Algorithms.luby_mis ~seed:1 g in
  check_int "one vertex" 1
    (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 mis)

let check_matching g mate =
  let ok = ref true in
  Array.iteri
    (fun v m ->
      if m >= 0 then begin
        if mate.(m) <> v then ok := false;
        if not (Ugraph.mem_edge g v m) then ok := false
      end)
    mate;
  let maximal =
    Ugraph.fold_edges
      (fun e acc ->
        let u, v = Edge.endpoints e in
        acc && not (mate.(u) < 0 && mate.(v) < 0))
      g true
  in
  !ok && maximal

let test_matching_valid () =
  List.iter
    (fun (name, g) ->
      let mate, metrics = Distsim.Algorithms.maximal_matching ~seed:3 g in
      check (name ^ " matching") true (check_matching g mate);
      check_int (name ^ " congest ok") 0 metrics.congest_violations)
    mis_families

let test_matching_gives_vertex_cover () =
  let g = Generators.gnp_connected (Rng.create 9) 50 0.15 in
  let mate, _ = Distsim.Algorithms.maximal_matching ~seed:4 g in
  let cover = ref [] in
  Array.iteri (fun v m -> if m >= 0 then cover := v :: !cover) mate;
  check "endpoints cover" true
    (Ugraph.fold_edges
       (fun e acc ->
         let u, v = Edge.endpoints e in
         acc && (mate.(u) >= 0 || mate.(v) >= 0))
       g true);
  ignore !cover

let prop_mis_valid =
  QCheck.Test.make ~name:"Luby MIS always independent and maximal" ~count:20
    QCheck.(
      set_shrink Shrink.nil (pair (int_range 1 30) (int_range 0 10_000)))
    (fun (n, seed) ->
      let g = Generators.gnp (Rng.create seed) n 0.2 in
      let mis, _ = Distsim.Algorithms.luby_mis ~seed:(seed + 1) g in
      check_mis g mis)

let prop_matching_valid =
  QCheck.Test.make ~name:"matching always symmetric and maximal" ~count:20
    QCheck.(
      set_shrink Shrink.nil (pair (int_range 1 30) (int_range 0 10_000)))
    (fun (n, seed) ->
      let g = Generators.gnp (Rng.create seed) n 0.2 in
      let mate, _ = Distsim.Algorithms.maximal_matching ~seed:(seed + 1) g in
      check_matching g mate)

(* ------------------------------------------------------------------ *)
(* Chunked LOCAL -> CONGEST compiler *)

type chk_state = { mutable heard : (int * int list) list }

let inbox_to_list inbox =
  List.rev
    (Distsim.Engine.inbox_fold
       (fun acc ~src msg -> (src, msg) :: acc)
       [] inbox)

let chunk_echo_spec payload_of =
  {
    Distsim.Engine.init =
      (fun ~n:_ ~vertex ~neighbors ~out ->
        Array.iter
          (fun u -> Distsim.Engine.emit out ~dst:u (payload_of vertex))
          neighbors;
        { heard = [] });
    step =
      (fun ~round:_ ~vertex:_ st inbox ~out:_ ->
        st.heard <- inbox_to_list inbox;
        (st, `Done));
    measure = (fun l -> 8 * (1 + List.length l));
  }

let test_chunked_reassembles () =
  let g = Generators.complete 5 in
  let payload_of v = [ v; v * 10; v * 100 ] in
  let states, metrics =
    Distsim.Chunked.run ~model:(Distsim.Model.congest ~n:5 ~c:16 ())
      ~graph:g ~chunks_per_round:6
      ~encode:(fun l -> l)
      ~decode:(fun l -> (l, []))
      (chunk_echo_spec payload_of)
  in
  Array.iteri
    (fun v st ->
      check_int "hears all neighbors" 4 (List.length st.heard);
      List.iter
        (fun (src, l) -> check "payload intact" true (l = payload_of src))
        st.heard;
      ignore v)
    states;
  check_int "no oversize chunks" 0 metrics.congest_violations

let test_chunked_rejects_oversize () =
  let g = Generators.path 2 in
  check "raises" true
    (try
       ignore
         (Distsim.Chunked.run ~model:Distsim.Model.local ~graph:g
            ~chunks_per_round:3
            ~encode:(fun l -> l)
            ~decode:(fun l -> (l, []))
            (chunk_echo_spec (fun v -> [ v; v; v; v; v ])));
       false
     with Invalid_argument _ -> true)

let test_chunked_rejects_double_send () =
  let g = Generators.path 2 in
  let double =
    {
      Distsim.Engine.init =
        (fun ~n:_ ~vertex:_ ~neighbors ~out ->
          let u = neighbors.(0) in
          Distsim.Engine.emit out ~dst:u [ 1 ];
          Distsim.Engine.emit out ~dst:u [ 2 ]);
      step = (fun ~round:_ ~vertex:_ () _ ~out:_ -> ((), `Done));
      measure = (fun _ -> 4);
    }
  in
  check "raises" true
    (try
       ignore
         (Distsim.Chunked.run ~model:Distsim.Model.local ~graph:g
            ~chunks_per_round:4
            ~encode:(fun l -> l)
            ~decode:(fun l -> (l, []))
            double);
       false
     with Invalid_argument _ -> true)

let test_chunked_multi_round () =
  (* A two-virtual-round spec: vertices broadcast their id, then echo
     the sorted ids they heard; compiled fixpoint matches. *)
  let g = Generators.cycle 6 in
  let spec =
    {
      Distsim.Engine.init =
        (fun ~n:_ ~vertex ~neighbors ~out ->
          Array.iter
            (fun u -> Distsim.Engine.emit out ~dst:u [ vertex ])
            neighbors;
          { heard = [] });
      step =
        (fun ~round ~vertex:_ st inbox ~out ->
          if round = 1 then begin
            let ids =
              List.sort compare
                (List.concat_map (fun (_, l) -> l) (inbox_to_list inbox))
            in
            Distsim.Engine.inbox_iter
              (fun ~src _ -> Distsim.Engine.emit out ~dst:src ids)
              inbox;
            (st, `Continue)
          end
          else begin
            st.heard <- inbox_to_list inbox;
            (st, `Done)
          end);
      measure = (fun l -> 8 * (1 + List.length l));
    }
  in
  let states, _ =
    Distsim.Chunked.run ~model:Distsim.Model.local ~graph:g
      ~chunks_per_round:4
      ~encode:(fun l -> l)
      ~decode:(fun l -> (l, []))
      spec
  in
  Array.iteri
    (fun v st ->
      List.iter
        (fun (src, l) ->
          check "echo contains me" true (List.mem v l);
          ignore src)
        st.heard)
    states

let () =
  Alcotest.run "distsim"
    [
      ( "engine",
        [
          Alcotest.test_case "delivery" `Quick test_delivery_next_round;
          Alcotest.test_case "inbox sorted" `Quick test_inbox_sorted_by_source;
          Alcotest.test_case "non-neighbor rejected" `Quick
            test_send_to_non_neighbor_rejected;
          Alcotest.test_case "round guard" `Quick test_max_rounds_guard;
          Alcotest.test_case "congest accounting" `Quick
            test_congest_violation_counted;
          Alcotest.test_case "bit metrics" `Quick test_metrics_bits;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
        ] );
      ( "model",
        [
          Alcotest.test_case "bandwidth" `Quick test_model_bandwidth;
          Alcotest.test_case "message bits" `Quick test_message_bits;
        ] );
      ( "algorithms",
        [
          Alcotest.test_case "flood min id" `Quick test_flood_min_id;
          Alcotest.test_case "flood components" `Quick
            test_flood_two_components;
          Alcotest.test_case "bfs" `Quick test_bfs_matches_centralized;
          QCheck_alcotest.to_alcotest prop_flood_always_min;
        ] );
      ( "chunked",
        [
          Alcotest.test_case "reassembles" `Quick test_chunked_reassembles;
          Alcotest.test_case "oversize rejected" `Quick
            test_chunked_rejects_oversize;
          Alcotest.test_case "double send rejected" `Quick
            test_chunked_rejects_double_send;
          Alcotest.test_case "multi round" `Quick test_chunked_multi_round;
        ] );
      ( "symmetry_breaking",
        [
          Alcotest.test_case "luby mis" `Quick test_luby_mis_valid;
          Alcotest.test_case "mis on clique" `Quick
            test_luby_mis_complete_singleton;
          Alcotest.test_case "maximal matching" `Quick test_matching_valid;
          Alcotest.test_case "matching covers" `Quick
            test_matching_gives_vertex_cover;
          QCheck_alcotest.to_alcotest prop_mis_valid;
          QCheck_alcotest.to_alcotest prop_matching_valid;
        ] );
    ]
