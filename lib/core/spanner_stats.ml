open Grapho

type t = {
  edges : int;
  graph_edges : int;
  compression : float;
  max_stretch : int;
  mean_stretch : float;
  stretch_histogram : (int * int) list;
}

(* Streaming accumulator: histogram, count, running sum and max — so
   computing stats over an m-edge graph never materializes an m-long
   stretch list. *)
type acc = {
  histogram : (int, int) Hashtbl.t;
  mutable finite_sum : int;
  mutable finite_count : int;
  mutable max_stretch : int;
}

let acc_create () =
  {
    histogram = Hashtbl.create 8;
    finite_sum = 0;
    finite_count = 0;
    max_stretch = 0;
  }

let acc_add a s =
  Hashtbl.replace a.histogram s
    (1 + Option.value ~default:0 (Hashtbl.find_opt a.histogram s));
  if s < max_int then begin
    a.finite_sum <- a.finite_sum + s;
    a.finite_count <- a.finite_count + 1
  end;
  if s > a.max_stretch then a.max_stretch <- s

let acc_finish a ~edges ~graph_edges =
  let mean =
    if a.finite_count = 0 then 0.0
    else float_of_int a.finite_sum /. float_of_int a.finite_count
  in
  {
    edges;
    graph_edges;
    compression = float_of_int edges /. float_of_int (max 1 graph_edges);
    max_stretch = a.max_stretch;
    mean_stretch = mean;
    stretch_histogram =
      List.sort compare
        (Hashtbl.fold (fun s c acc -> (s, c) :: acc) a.histogram []);
  }

let compute g s =
  let a = acc_create () in
  Spanner_check.iter_stretch g s (acc_add a);
  acc_finish a ~edges:(Edge.Set.cardinal s) ~graph_edges:(Ugraph.m g)

let directed_compute g s =
  let a = acc_create () in
  Spanner_check.directed_iter_stretch g s (acc_add a);
  acc_finish a
    ~edges:(Edge.Directed.Set.cardinal s)
    ~graph_edges:(Dgraph.m g)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>edges: %d / %d (%.1f%%)@,max stretch: %s@,mean stretch: %.3f@,histogram:"
    t.edges t.graph_edges (100.0 *. t.compression)
    (if t.max_stretch = max_int then "unreachable pair!"
     else string_of_int t.max_stretch)
    t.mean_stretch;
  List.iter
    (fun (s, c) ->
      if s = max_int then Format.fprintf ppf "@,  unreachable: %d" c
      else Format.fprintf ppf "@,  %d hops: %d" s c)
    t.stretch_histogram;
  Format.fprintf ppf "@]"
