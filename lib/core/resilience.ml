(* Survivor-quality analysis. See resilience.mli. *)

open Grapho

type protocol = Spanner_local | Spanner_congest | Mds

type report = {
  protocol : protocol;
  schedule : string;
  n : int;
  m : int;
  terminated : bool;
  failure : string option;
  rounds : int;
  messages : int;
  dropped : int;
  crashed : int list;
  survivors : int;
  surviving_m : int;
  output_size : int;
  surviving_output : int;
  valid : bool;
  stretch : int;
}

let protocol_name = function
  | Spanner_local -> "spanner-local"
  | Spanner_congest -> "spanner-congest"
  | Mds -> "mds"

let surviving_subgraph g ~crashed ~schedule =
  let n = Ugraph.n g in
  let dead = Array.make (max n 1) false in
  List.iter (fun v -> if v >= 0 && v < n then dead.(v) <- true) crashed;
  let cut u v =
    List.exists
      (fun ((a, b), (_, upto)) ->
        upto = max_int && ((a = u && b = v) || (a = v && b = u)))
      schedule.Distsim.Faults.cuts
  in
  Ugraph.of_edge_iter ~expected_edges:(Ugraph.m g) ~n (fun emit ->
      Ugraph.iter_edges_uv
        (fun u v -> if not (dead.(u) || dead.(v) || cut u v) then emit u v)
        g)

let surviving_edges s ~graph =
  Edge.Set.filter
    (fun e ->
      let u, v = Edge.endpoints e in
      Ugraph.mem_edge graph u v)
    s

(* A dominating-set check that only grades the survivors: every
   non-crashed vertex must be in the set or adjacent (in the surviving
   subgraph) to a member. Crashed vertices are beyond saving. *)
let dominates_survivors g' ~alive set =
  let n = Ugraph.n g' in
  let in_set = Array.make (max n 1) false in
  List.iter (fun v -> if v >= 0 && v < n then in_set.(v) <- true) set;
  let ok = ref true in
  for v = 0 to n - 1 do
    if alive.(v) && not in_set.(v) then begin
      let dominated =
        Ugraph.fold_neighbors
          (fun acc u -> acc || in_set.(u))
          g' v false
      in
      if not dominated then ok := false
    end
  done;
  !ok

let run ?(seed = 0x2D5F1) ?(retry = 1) ?sched ?par ?max_rounds ~protocol
    ~schedule g =
  let n = Ugraph.n g in
  let m = Ugraph.m g in
  let adversary = Distsim.Faults.compile ~n schedule in
  (* The stats sink survives a mid-run exception, so round/message/drop
     counts are available even when the run dies. *)
  let stats = Distsim.Trace.stats () in
  let trace = Distsim.Trace.stats_sink stats in
  let outcome =
    try
      match protocol with
      | Spanner_local ->
          let r =
            Two_spanner_local.run ~seed ?max_rounds ?sched ?par ~adversary
              ~retry ~trace g
          in
          Ok (`Spanner r.Two_spanner_local.spanner)
      | Spanner_congest ->
          let r =
            Two_spanner_local.run_congest ~seed ?max_rounds ?sched ?par
              ~adversary ~retry ~trace g
          in
          Ok (`Spanner r.Two_spanner_local.spanner)
      | Mds ->
          let r =
            Mds.run ~rng:(Rng.create seed) ?sched ?par ~adversary ~retry
              ~trace g
          in
          Ok (`Mds r.Mds.dominating_set)
    with
    | Failure msg -> Error msg
    | Invalid_argument msg -> Error msg
    | Distsim.Chunked.Bandwidth_exceeded { vertex; round; bits; budget } ->
        Error
          (Printf.sprintf
             "bandwidth audit: vertex %d round %d sent %d bits (budget %d)"
             vertex round bits budget)
  in
  let series = Distsim.Trace.series stats in
  let rounds = max 0 (Array.length series.Distsim.Trace.rounds - 1) in
  let messages, dropped =
    Array.fold_left
      (fun (m, d) r ->
        (m + r.Distsim.Trace.messages, d + r.Distsim.Trace.dropped))
      (0, 0) series.Distsim.Trace.rounds
  in
  let crashed = Distsim.Adversary.crashed_list adversary in
  let survivors = n - List.length crashed in
  let g' = surviving_subgraph g ~crashed ~schedule in
  let surviving_m = Ugraph.m g' in
  let alive = Array.make (max n 1) true in
  List.iter (fun v -> if v >= 0 && v < n then alive.(v) <- false) crashed;
  let terminated, failure, output_size, surviving_output, valid, stretch =
    match outcome with
    | Error msg -> (false, Some msg, 0, 0, false, -1)
    | Ok (`Spanner s) ->
        (* s' ⊆ g' by construction, so stretch ≤ 2 is the verdict. *)
        let s' = surviving_edges s ~graph:g' in
        let st = Spanner_check.stretch g' s' in
        ( true,
          None,
          Edge.Set.cardinal s,
          Edge.Set.cardinal s',
          st <= 2,
          if st = max_int then -1 else st )
    | Ok (`Mds d) ->
        let d' = List.filter (fun v -> v < n && alive.(v)) d in
        ( true,
          None,
          List.length d,
          List.length d',
          dominates_survivors g' ~alive d',
          0 )
  in
  {
    protocol;
    schedule = Distsim.Faults.to_string schedule;
    n;
    m;
    terminated;
    failure;
    rounds;
    messages;
    dropped;
    crashed;
    survivors;
    surviving_m;
    output_size;
    surviving_output;
    valid;
    stretch;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>protocol         %s@,schedule         %s@,graph            n=%d \
     m=%d@,terminated       %b%s@,rounds           %d@,messages         %d \
     (%d dropped)@,crashed          %d%s@,surviving graph  n'=%d \
     m'=%d@,output           %d edges/members (%d survive)@,verdict          \
     %s@]"
    (protocol_name r.protocol)
    (if r.schedule = "" then "(none)" else r.schedule)
    r.n r.m r.terminated
    (match r.failure with None -> "" | Some msg -> " (" ^ msg ^ ")")
    r.rounds r.messages r.dropped (List.length r.crashed)
    (if r.crashed = [] then ""
     else
       " [" ^ String.concat "," (List.map string_of_int r.crashed) ^ "]")
    r.survivors r.surviving_m r.output_size r.surviving_output
    (if r.valid then
       if r.stretch >= 0 then
         Printf.sprintf "VALID (stretch %d on survivors)" r.stretch
       else "VALID"
     else if not r.terminated then "FAILED"
     else
       Printf.sprintf "INVALID (stretch %s on survivors)"
         (if r.stretch = -1 then "infinite" else string_of_int r.stretch))
