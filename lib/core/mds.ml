open Grapho
module Iset = Set.Make (Int)

type msg =
  | Density of int  (* rounded exponent; 0 encodes density zero *)
  | Max_density of int
  | Candidate of int  (* the random draw r_v *)
  | Vote
  | Joined
  | Covered

type vstate = {
  neighbors : int array;
  rng : Rng.t;
  mutable covered_self : bool;
  mutable announced_covered : bool;
  mutable uncovered_nbrs : Iset.t;
  mutable in_mds : bool;
  mutable quiet : bool;
  mutable max1 : int;
  mutable is_candidate : bool;
  mutable r_value : int;
  mutable cv_size : int;  (* |S_v ∩ U| frozen at candidacy *)
  mutable self_vote : bool;
  mutable nbr_candidates : (int * int) list;  (* (r, id) *)
}

type result = {
  dominating_set : int list;
  iterations : int;
  metrics : Distsim.Engine.metrics;
}

let density_count st =
  (if st.covered_self then 0 else 1) + Iset.cardinal st.uncovered_nbrs

let exponent_of count =
  if count <= 0 then 0
  else
    match Star_pick.rounded_exponent (float_of_int count) with
    | Some e -> e
    | None -> 0

let measure ~n msg =
  let id_bits = Distsim.Message.bits_for_id ~n in
  match msg with
  | Density e | Max_density e -> 3 + Distsim.Message.bits_int (abs e + 1)
  | Candidate _ -> 3 + (4 * id_bits)  (* r_v ranges over n^4 *)
  | Vote | Joined | Covered -> 3

type selection = Votes | Coin of float

let phase_names = [| "max1"; "candidate"; "vote"; "tally"; "cover"; "restart" |]

let run ?rng ?model ?(selection = Votes) ?sched ?par ?adversary ?profile
    ?frugal ?(retry = 1) ?(trace = Distsim.Trace.null) g =
  let seed_rng = match rng with Some r -> r | None -> Rng.create 0xD0517 in
  let n = Ugraph.n g in
  let model =
    match model with
    | Some m -> m
    | None -> Distsim.Model.congest ~n:(max n 2) ~c:8 ()
  in
  let n4 = Randomness.vote_bound ~n in
  (* Each vertex gets a private random stream, split deterministically
     from the seed *before* the engine runs; afterwards a vertex only
     ever draws from its own [streams.(vertex)], so stepping vertices
     on concurrent domains (Engine [?par]) touches disjoint RNG state
     and the draw sequence is identical for any shard count. *)
  let streams = Array.init n (fun _ -> Rng.split seed_rng) in
  let broadcast st out payload =
    let nbrs = st.neighbors in
    for i = 0 to Array.length nbrs - 1 do
      Distsim.Engine.emit out ~dst:nbrs.(i) payload
    done
  in
  (* One global phase marker per round, stamped from [Round_begin] on
     the engine's merge thread (race-free under [?par]). *)
  let trace =
    Distsim.Trace.with_round_phases
      (fun r -> if r = 0 then None else Some (phase_names.((r - 1) mod 6), r))
      trace
  in
  let spec =
    {
      Distsim.Engine.init =
        (fun ~n:_ ~vertex ~neighbors ~out ->
          let st =
            {
              neighbors;
              rng = streams.(vertex);
              covered_self = false;
              announced_covered = false;
              uncovered_nbrs =
                Array.fold_left (fun s u -> Iset.add u s) Iset.empty neighbors;
              in_mds = false;
              quiet = false;
              max1 = 0;
              is_candidate = false;
              r_value = 0;
              cv_size = 0;
              self_vote = false;
              nbr_candidates = [];
            }
          in
          broadcast st out (Density (exponent_of (density_count st)));
          st);
      step =
        (fun ~round ~vertex st inbox ~out ->
          if st.quiet then (st, `Done)
          else begin
            let phase = (round - 1) mod 6 in
            (match phase with
            | 0 ->
                (* Received neighbor densities; relay the local max. *)
                let own = exponent_of (density_count st) in
                let m =
                  Distsim.Engine.inbox_fold
                    (fun acc ~src:_ msg ->
                      match msg with Density e -> max acc e | _ -> acc)
                    own inbox
                in
                st.max1 <- m;
                broadcast st out (Max_density m)
            | 1 ->
                (* Know the 2-neighborhood max; decide candidacy or
                   quiescence. *)
                let m2 =
                  Distsim.Engine.inbox_fold
                    (fun acc ~src:_ msg ->
                      match msg with Max_density e -> max acc e | _ -> acc)
                    st.max1 inbox
                in
                let count = density_count st in
                let own = exponent_of count in
                if m2 = 0 then st.quiet <- true
                else if count >= 1 && own >= m2 then begin
                  st.is_candidate <- true;
                  st.cv_size <- count;
                  st.r_value <- 1 + Rng.int st.rng n4;
                  st.self_vote <- false;
                  broadcast st out (Candidate st.r_value)
                end
                else st.is_candidate <- false
            | 2 ->
                (* Received candidacies; uncovered vertices vote. *)
                st.nbr_candidates <-
                  List.rev
                    (Distsim.Engine.inbox_fold
                       (fun acc ~src msg ->
                         match msg with
                         | Candidate r -> (r, src) :: acc
                         | _ -> acc)
                       [] inbox);
                if not st.covered_self then begin
                  let options =
                    if st.is_candidate then
                      (st.r_value, vertex) :: st.nbr_candidates
                    else st.nbr_candidates
                  in
                  let sorted =
                    List.sort
                      (fun (r1, v1) (r2, v2) ->
                        if r1 <> r2 then Int.compare r1 r2
                        else Int.compare v1 v2)
                      options
                  in
                  match sorted with
                  | [] -> ()
                  | (_, winner) :: _ ->
                      if winner = vertex then st.self_vote <- true
                      else Distsim.Engine.emit out ~dst:winner Vote
                end
            | 3 ->
                (* Candidates tally votes and join on an eighth --- or
                   flip the Jia-et-al-style coin instead. *)
                if st.is_candidate then begin
                  let votes =
                    Distsim.Engine.inbox_fold
                      (fun acc ~src:_ msg ->
                        if msg = Vote then acc + 1 else acc)
                      (if st.self_vote then 1 else 0)
                      inbox
                  in
                  st.is_candidate <- false;
                  let joins =
                    match selection with
                    | Votes -> 8 * votes >= st.cv_size
                    | Coin p -> Rng.float st.rng 1.0 < p
                  in
                  if joins then begin
                    st.in_mds <- true;
                    st.covered_self <- true;
                    broadcast st out Joined
                  end
                end
            | 4 ->
                (* Joins cover the neighborhood; announce new cover
                   status once. *)
                let nbr_joined =
                  Distsim.Engine.inbox_fold
                    (fun acc ~src:_ msg -> acc || msg = Joined)
                    false inbox
                in
                if nbr_joined then st.covered_self <- true;
                if st.covered_self && not st.announced_covered then begin
                  st.announced_covered <- true;
                  broadcast st out Covered
                end
            | _ ->
                (* Absorb cover updates; restart with fresh densities. *)
                Distsim.Engine.inbox_iter
                  (fun ~src msg ->
                    if msg = Covered then
                      st.uncovered_nbrs <- Iset.remove src st.uncovered_nbrs)
                  inbox;
                broadcast st out (Density (exponent_of (density_count st))));
            (st, if st.quiet then `Done else `Continue)
          end);
      measure = measure ~n:(max n 2);
    }
  in
  let states, metrics =
    Distsim.Engine.run ?sched ?par ?adversary ?profile ?frugal ~model ~graph:g
      ~trace
      (Distsim.Faults.with_retry ~attempts:retry spec)
  in
  let dominating_set =
    Array.to_list states
    |> List.mapi (fun v st -> (v, st.in_mds))
    |> List.filter_map (fun (v, flag) -> if flag then Some v else None)
  in
  { dominating_set; iterations = (metrics.rounds + 5) / 6; metrics }

let is_dominating_set g d =
  let n = Ugraph.n g in
  let dominated = Array.make n false in
  List.iter
    (fun v ->
      dominated.(v) <- true;
      Ugraph.iter_neighbors (fun u -> dominated.(u) <- true) g v)
    d;
  Array.for_all (fun b -> b) dominated

let greedy g =
  let n = Ugraph.n g in
  let covered = Array.make n false in
  let chosen = ref [] in
  let uncovered_gain v =
    Ugraph.fold_neighbors
      (fun acc u -> if covered.(u) then acc else acc + 1)
      g v
      (if covered.(v) then 0 else 1)
  in
  let remaining = ref n in
  while !remaining > 0 do
    let best = ref 0 and best_gain = ref (-1) in
    for v = 0 to n - 1 do
      let gain = uncovered_gain v in
      if gain > !best_gain then begin
        best := v;
        best_gain := gain
      end
    done;
    let v = !best in
    chosen := v :: !chosen;
    if not covered.(v) then begin
      covered.(v) <- true;
      decr remaining
    end;
    Ugraph.iter_neighbors
      (fun u ->
        if not covered.(u) then begin
          covered.(u) <- true;
          decr remaining
        end)
      g v
  done;
  List.sort compare !chosen

(* Centralized mirror of the protocol above. It must consume
   randomness identically: one stream split per vertex in id order at
   start, one draw per candidacy. *)
let reference ?rng ?(selection = Votes) g =
  let seed_rng = match rng with Some r -> r | None -> Rng.create 0xD0517 in
  let n = Ugraph.n g in
  let n4 = Randomness.vote_bound ~n in
  let streams = Array.init n (fun _ -> Rng.split seed_rng) in
  let covered = Array.make n false in
  let in_mds = Array.make n false in
  let closed v = v :: Ugraph.fold_neighbors (fun acc u -> u :: acc) g v [] in
  let count v =
    List.length (List.filter (fun u -> not covered.(u)) (closed v))
  in
  let exp_of v = exponent_of (count v) in
  let all_covered () = Array.for_all (fun c -> c) covered in
  let guard = ref 0 in
  while not (all_covered ()) do
    incr guard;
    if !guard > 50 * (n + 5) then failwith "Mds.reference: no progress";
    (* Rounded-density maxima over closed 2-neighborhoods. *)
    let one =
      Array.init n (fun v ->
          List.fold_left (fun acc u -> max acc (exp_of u)) 0 (closed v))
    in
    let two =
      Array.init n (fun v ->
          Ugraph.fold_neighbors (fun acc u -> max acc one.(u)) g v one.(v))
    in
    (* Candidates draw their values. *)
    let candidate = Array.make n false in
    let r_value = Array.make n 0 in
    let cv = Array.make n 0 in
    for v = 0 to n - 1 do
      let c = count v in
      if c >= 1 && exp_of v >= two.(v) then begin
        candidate.(v) <- true;
        cv.(v) <- c;
        r_value.(v) <- 1 + Rng.int streams.(v) n4
      end
    done;
    (* Uncovered vertices vote for the first candidate covering them. *)
    let votes = Array.make n 0 in
    for u = 0 to n - 1 do
      if not covered.(u) then begin
        let options =
          List.filter_map
            (fun w -> if candidate.(w) then Some (r_value.(w), w) else None)
            (closed u)
        in
        match List.sort compare options with
        | [] -> ()
        | (_, winner) :: _ -> votes.(winner) <- votes.(winner) + 1
      end
    done;
    (* Joins. *)
    for v = 0 to n - 1 do
      if candidate.(v) then begin
        let joins =
          match selection with
          | Votes -> 8 * votes.(v) >= cv.(v)
          | Coin p -> Rng.float streams.(v) 1.0 < p
        in
        if joins then in_mds.(v) <- true
      end
    done;
    for v = 0 to n - 1 do
      if in_mds.(v) then List.iter (fun u -> covered.(u) <- true) (closed v)
    done
  done;
  List.filter (fun v -> in_mds.(v)) (List.init n (fun i -> i))
