open Grapho
module C = Spanner_core
module Trace = Distsim.Trace

type loaded = {
  inc : C.Incremental.t;
  bootstrap_rounds : int;
  mutable valid : bool;
}

type t = {
  mutable resident : loaded option;
  query : C.Spanner_check.query;
  mutable on_event : (Trace.event -> unit) option;
  mutable loads : int;
  mutable queries : int;
  mutable paths : int;
  mutable nopaths : int;
  mutable churn_ticks : int;
  mutable churn_broken : int;
  mutable repair_rounds : int;
  mutable errors : int;
}

let create () =
  {
    resident = None;
    query = C.Spanner_check.query_create ();
    on_event = None;
    loads = 0;
    queries = 0;
    paths = 0;
    nopaths = 0;
    churn_ticks = 0;
    churn_broken = 0;
    repair_rounds = 0;
    errors = 0;
  }

let set_on_event t f = t.on_event <- f
let bump_errors t = t.errors <- t.errors + 1

(* Subscribers see a deterministic projection of the engine's event
   stream: Round_end's wall-clock and GC fields are measurements of
   the simulator, not the protocol, so they are zeroed on the wire. *)
let scrub = function
  | Trace.Round_end st ->
      Trace.Round_end { st with elapsed_ns = 0; minor_words = 0 }
  | ev -> ev

let trace_sink t =
  match t.on_event with
  | None -> Trace.null
  | Some f -> Trace.custom ~sends:false (fun ev -> f (scrub ev))

let err t msg =
  t.errors <- t.errors + 1;
  Wire.Err msg

(* Vertex count cap on generated graphs: a typo'd LOAD should answer
   ERR, not OOM the daemon. *)
let max_n = 2_000_000

let build_graph ~family ~n ~p ~seed =
  if n < 1 then Error "n must be >= 1"
  else if n > max_n then
    Error (Printf.sprintf "n too large (max %d)" max_n)
  else
    match family with
    | "gnp" ->
        if not (p > 0.0 && p <= 1.0) then Error "gnp: p must be in (0, 1]"
        else Ok (Generators.gnp_connected (Rng.create seed) n p)
    | "pa" ->
        let d = int_of_float p in
        if d < 1 then Error "pa: p is edges-per-vertex, must be >= 1"
        else Ok (Generators.preferential_attachment (Rng.create seed) n d)
    | "caveman" ->
        if not (p >= 0.0 && p <= 1.0) then Error "caveman: p must be in [0, 1]"
        else Ok (Generators.caveman_n (Rng.create seed) n p)
    | "complete" -> Ok (Generators.complete n)
    | "cycle" -> Ok (Generators.cycle n)
    | f ->
        Error
          (Printf.sprintf
             "unknown family %S (want gnp|pa|caveman|complete|cycle)" f)

let install t ~seed g =
  let inc, (r : C.Two_spanner_local.result) =
    C.Incremental.bootstrap ~seed ~trace:(trace_sink t) g
  in
  (* The one whole-graph check: the base every CHURN's local verdict
     builds on. *)
  t.resident <-
    Some
      {
        inc;
        bootstrap_rounds = r.metrics.rounds;
        valid = C.Incremental.valid inc;
      };
  t.loads <- t.loads + 1;
  Wire.Loaded
    {
      n = Ugraph.n g;
      m = Ugraph.m g;
      spanner = Ugraph.m (C.Incremental.spanner_csr inc);
      rounds = r.metrics.rounds;
    }

let handle_query t u v =
  match t.resident with
  | None -> err t "no graph loaded"
  | Some ld ->
      let sg = C.Incremental.spanner_csr ld.inc in
      let n = Ugraph.n sg in
      if u >= n || v >= n then
        err t (Printf.sprintf "vertex out of range (n=%d)" n)
      else begin
        t.queries <- t.queries + 1;
        match C.Spanner_check.query_path t.query sg ~u ~v with
        | Some p ->
            t.paths <- t.paths + 1;
            Wire.Path p
        | None ->
            t.nopaths <- t.nopaths + 1;
            Wire.Nopath (u, v)
      end

let handle_churn t ops =
  match t.resident with
  | None -> err t "no graph loaded"
  | Some ld -> (
      let d = Ugraph.Delta.create () in
      List.iter
        (function
          | Wire.Ins (u, v) -> Ugraph.Delta.add_insert d u v
          | Wire.Del (u, v) -> Ugraph.Delta.add_delete d u v)
        ops;
      match
        C.Incremental.apply ~trace:(trace_sink t) ld.inc d
      with
      | st ->
          ld.valid <- ld.valid && st.valid;
          t.churn_ticks <- t.churn_ticks + 1;
          t.churn_broken <- t.churn_broken + st.broken;
          t.repair_rounds <- t.repair_rounds + st.repair_rounds;
          Wire.Churned
            {
              tick = st.tick;
              deleted = st.deleted;
              inserted = st.inserted;
              broken = st.broken;
              dirty = st.dirty;
              spanner = st.spanner_size;
              valid = ld.valid;
            }
      | exception Invalid_argument msg -> err t msg)

let stats t =
  let f = float_of_int in
  let loaded, n, m, spanner, tick, valid, brounds =
    match t.resident with
    | None -> (0., 0., 0., 0., 0., 0., 0.)
    | Some ld ->
        let g = C.Incremental.graph ld.inc in
        ( 1.,
          f (Ugraph.n g),
          f (Ugraph.m g),
          f (Ugraph.m (C.Incremental.spanner_csr ld.inc)),
          f (C.Incremental.tick ld.inc),
          (if ld.valid then 1. else 0.),
          f ld.bootstrap_rounds )
  in
  [
    ("loaded", loaded);
    ("n", n);
    ("m", m);
    ("spanner_edges", spanner);
    ("tick", tick);
    ("valid", valid);
    ("bootstrap_rounds", brounds);
    ("repair_rounds", f t.repair_rounds);
    ("loads", f t.loads);
    ("queries", f t.queries);
    ("paths", f t.paths);
    ("nopaths", f t.nopaths);
    ("churn_ticks", f t.churn_ticks);
    ("churn_broken", f t.churn_broken);
    ("errors", f t.errors);
  ]

let handle t (req : Wire.request) =
  match req with
  | Load { family; n; p; seed } -> (
      match build_graph ~family ~n ~p ~seed with
      | Error e -> err t ("LOAD: " ^ e)
      | Ok g -> install t ~seed g
      | exception Invalid_argument msg -> err t ("LOAD: " ^ msg)
      | exception Failure msg -> err t ("LOAD: " ^ msg))
  | Loadfile path -> (
      match
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | exception Sys_error msg -> err t ("LOADFILE: " ^ msg)
      | text -> (
          match Graph_io.of_edge_list text with
          | g when Ugraph.n g > max_n ->
              err t (Printf.sprintf "LOADFILE: n too large (max %d)" max_n)
          | g -> install t ~seed:0x2D5F1 g
          | exception Invalid_argument msg -> err t ("LOADFILE: " ^ msg)
          | exception Failure msg -> err t ("LOADFILE: " ^ msg)))
  | Query (u, v) -> handle_query t u v
  | Churn ops -> handle_churn t ops
  | Stats -> Wire.Stats_reply (stats t)
  | Subscribe | Unsubscribe | Quit | Shutdown ->
      err t "connection-scoped request routed to the service"

let graph t =
  match t.resident with
  | None -> None
  | Some ld -> Some (C.Incremental.graph ld.inc)

let spanner_size t =
  match t.resident with
  | None -> 0
  | Some ld -> Ugraph.m (C.Incremental.spanner_csr ld.inc)
