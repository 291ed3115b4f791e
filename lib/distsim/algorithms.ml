type 'a state = { mutable value : 'a }

(* Broadcast by pushing straight into the engine's reused outbox — no
   send-record lists anywhere in this module. *)
let broadcast_arr out neighbors payload =
  Array.iter (fun u -> Engine.emit out ~dst:u payload) neighbors

let broadcast_list out targets payload =
  List.iter (fun u -> Engine.emit out ~dst:u payload) targets

(* Step-time broadcast straight off the CSR row: [Ugraph.neighbors]
   copies the row into a fresh array on every call, which would be
   per-vertex-per-round garbage in the hot loop. *)
let broadcast_nbrs out graph vertex payload =
  Grapho.Ugraph.iter_neighbors
    (fun u -> Engine.emit out ~dst:u payload)
    graph vertex

(* Shared shape: each vertex holds a value, rebroadcasts it whenever it
   improves, and is done while no improvement arrives. Messages carry
   values of the same type as the state. *)
let improving_spec ~initial ~announces_first ~improve ~measure graph =
  {
    Engine.init =
      (fun ~n:_ ~vertex ~neighbors ~out ->
        let v = initial vertex in
        if announces_first vertex then broadcast_arr out neighbors v;
        { value = v });
    step =
      (fun ~round:_ ~vertex st inbox ~out ->
        let improved = ref false in
        Engine.inbox_iter
          (fun ~src:_ msg ->
            match improve st.value msg with
            | Some better ->
                st.value <- better;
                improved := true
            | None -> ())
          inbox;
        if !improved then begin
          broadcast_nbrs out graph vertex st.value;
          (st, `Continue)
        end
        else (st, `Done));
    measure;
  }

let run_improving ?model ?par ?frugal graph spec =
  let model =
    match model with
    | Some m -> m
    | None -> Model.congest ~n:(max 2 (Grapho.Ugraph.n graph)) ()
  in
  let states, metrics = Engine.run ?par ?frugal ~model ~graph spec in
  (Array.map (fun s -> s.value) states, metrics)

let id_bits graph = Message.bits_for_id ~n:(max 2 (Grapho.Ugraph.n graph))

let flood_min_id_spec graph =
  let bits = id_bits graph in
  improving_spec graph
    ~initial:(fun v -> v)
    ~announces_first:(fun _ -> true)
    ~improve:(fun current incoming ->
      if incoming < current then Some incoming else None)
    ~measure:(fun _ -> bits)

let flood_min_id ?model ?par ?frugal graph =
  run_improving ?model ?par ?frugal graph (flood_min_id_spec graph)

let bfs_distances ?model ?par ?frugal ~root graph =
  let bits = id_bits graph in
  run_improving ?model ?par ?frugal graph
    (improving_spec graph
       ~initial:(fun v -> if v = root then 0 else max_int)
       ~announces_first:(fun v -> v = root)
       ~improve:(fun current incoming ->
         if incoming < max_int && incoming + 1 < current then
           Some (incoming + 1)
         else None)
       ~measure:(fun _ -> bits))

(* ------------------------------------------------------------------ *)
(* Luby's MIS: phases of (Value, Joined, -). *)

type mis_state = {
  rng : Grapho.Rng.t;
  mutable in_mis : bool;
  mutable dead : bool;
  mutable my_value : int;
  mutable best_seen : int option;
}

type mis_msg = Value of int | Joined_mis

let luby_mis ?(seed = 0x715B) ?model graph =
  let n = max 2 (Grapho.Ugraph.n graph) in
  let model =
    match model with Some m -> m | None -> Model.congest ~n ()
  in
  let master = Grapho.Rng.create seed in
  let streams =
    Array.init (Grapho.Ugraph.n graph) (fun _ -> Grapho.Rng.split master)
  in
  let bound = n * n * n in
  let spec =
    {
      Engine.init =
        (fun ~n:_ ~vertex ~neighbors ~out ->
          let st =
            {
              rng = streams.(vertex);
              in_mis = false;
              dead = false;
              my_value = 0;
              best_seen = None;
            }
          in
          st.my_value <- Grapho.Rng.int st.rng bound;
          broadcast_arr out neighbors (Value st.my_value);
          st);
      step =
        (fun ~round ~vertex st inbox ~out ->
          if st.dead || st.in_mis then (st, `Done)
          else begin
            let phase = (round - 1) mod 3 in
            (match phase with
            | 0 ->
                (* Received live neighbor values; join if strictly
                   first in (value, id) order — monomorphic compare. *)
                let beaten =
                  Engine.inbox_fold
                    (fun acc ~src m ->
                      acc
                      ||
                      match m with
                      | Value v ->
                          v < st.my_value || (v = st.my_value && src < vertex)
                      | _ -> false)
                    false inbox
                in
                if not beaten then begin
                  st.in_mis <- true;
                  broadcast_nbrs out graph vertex Joined_mis
                end
            | 1 ->
                (* Neighbors joining kill this vertex. *)
                if
                  Engine.inbox_fold
                    (fun acc ~src:_ m -> acc || m = Joined_mis)
                    false inbox
                then st.dead <- true
            | _ ->
                (* Start the next phase with a fresh value. *)
                st.my_value <- Grapho.Rng.int st.rng bound;
                broadcast_nbrs out graph vertex (Value st.my_value));
            let status =
              if st.dead || st.in_mis then `Done else `Continue
            in
            (st, status)
          end);
      measure =
        (fun m ->
          match m with
          | Value _ -> 2 + (3 * Message.bits_for_id ~n)
          | Joined_mis -> 2);
    }
  in
  let states, metrics = Engine.run ~model ~graph spec in
  (Array.map (fun st -> st.in_mis) states, metrics)

(* ------------------------------------------------------------------ *)
(* Maximal matching by random head/tail proposals (Israeli-Itai
   style): each phase, every active vertex flips a coin; heads propose
   to a random active tail neighbor, tails accept one proposer. The
   head/tail asymmetry rules out mutual-proposal deadlocks. *)

type mm_state = {
  mm_rng : Grapho.Rng.t;
  mutable mate : int;
  mutable announced : bool;
  mutable is_head : bool;
  mutable tails : int list;
  mutable live_nbrs : int list;
}

type mm_msg = Mm_coin of bool | Mm_propose | Mm_accept | Mm_matched

let maximal_matching ?(seed = 0x7A7E) ?model graph =
  let n = max 2 (Grapho.Ugraph.n graph) in
  let model =
    match model with Some m -> m | None -> Model.congest ~n ()
  in
  let master = Grapho.Rng.create seed in
  let streams =
    Array.init (Grapho.Ugraph.n graph) (fun _ -> Grapho.Rng.split master)
  in
  let spec =
    {
      Engine.init =
        (fun ~n:_ ~vertex ~neighbors ~out ->
          let st =
            {
              mm_rng = streams.(vertex);
              mate = -1;
              announced = false;
              is_head = false;
              tails = [];
              live_nbrs = Array.to_list neighbors;
            }
          in
          st.is_head <- Grapho.Rng.bool st.mm_rng;
          broadcast_list out st.live_nbrs (Mm_coin st.is_head);
          st);
      step =
        (fun ~round ~vertex st inbox ~out ->
          ignore vertex;
          (* Matched neighbors leave the pool, whatever the phase. *)
          Engine.inbox_iter
            (fun ~src m ->
              if m = Mm_matched then
                st.live_nbrs <- List.filter (fun u -> u <> src) st.live_nbrs)
            inbox;
          let finished () = st.mate >= 0 || st.live_nbrs = [] in
          let phase = (round - 1) mod 4 in
          (match phase with
          | 0 ->
              (* Coins in hand: heads court a random active tail. *)
              if st.mate < 0 then begin
                st.tails <-
                  List.rev
                    (Engine.inbox_fold
                       (fun acc ~src m ->
                         match m with
                         | Mm_coin false when List.mem src st.live_nbrs ->
                             src :: acc
                         | _ -> acc)
                       [] inbox);
                if st.is_head && st.tails <> [] then begin
                  let pick =
                    List.nth st.tails
                      (Grapho.Rng.int st.mm_rng (List.length st.tails))
                  in
                  Engine.emit out ~dst:pick Mm_propose
                end
              end
          | 1 ->
              (* Tails accept the smallest-id proposer. *)
              if st.mate < 0 then begin
                let proposers =
                  Engine.inbox_fold
                    (fun acc ~src m ->
                      match m with Mm_propose -> src :: acc | _ -> acc)
                    [] inbox
                in
                match List.sort Int.compare proposers with
                | [] -> ()
                | u :: _ ->
                    st.mate <- u;
                    st.announced <- true;
                    Engine.emit out ~dst:u Mm_accept;
                    broadcast_list out st.live_nbrs Mm_matched
              end
          | 2 ->
              (* Heads learn their fate: an accept can only come from
                 the single tail they proposed to. *)
              if st.mate < 0 then
                Engine.inbox_iter
                  (fun ~src m ->
                    if m = Mm_accept && st.mate < 0 then st.mate <- src)
                  inbox;
              if st.mate >= 0 && not st.announced then begin
                st.announced <- true;
                broadcast_list out st.live_nbrs Mm_matched
              end
          | _ ->
              (* Fresh coins for the next phase. *)
              if not (finished ()) then begin
                st.is_head <- Grapho.Rng.bool st.mm_rng;
                broadcast_list out st.live_nbrs (Mm_coin st.is_head)
              end);
          (st, if finished () then `Done else `Continue));
      measure = (fun _ -> 3);
    }
  in
  let states, metrics = Engine.run ~model ~graph spec in
  (Array.map (fun st -> st.mate) states, metrics)
