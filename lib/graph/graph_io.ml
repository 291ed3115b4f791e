let to_edge_list g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%d %d\n" (Ugraph.n g) (Ugraph.m g));
  Ugraph.iter_edges
    (fun e ->
      let u, v = Edge.endpoints e in
      Buffer.add_string buf (Printf.sprintf "%d %d\n" u v))
    g;
  Buffer.contents buf

(* Parsing keeps the 1-based line number of every retained line so
   that a rejected edge can name the exact offending line of the
   original input, comments and blanks included. Lines are streamed —
   scanned in place and handed to a callback one at a time — and the
   parsed rows land in a growable off-heap buffer, so reading an
   m-edge file into the CSR builder never materializes a line list or
   an edge list. *)
let iter_numbered_lines s f =
  let len = String.length s in
  let start = ref 0 and lineno = ref 0 in
  while !start <= len do
    incr lineno;
    let stop =
      match String.index_from_opt s !start '\n' with
      | Some i -> i
      | None -> len
    in
    let line = String.trim (String.sub s !start (stop - !start)) in
    if line <> "" && line.[0] <> '#' then f !lineno line;
    start := stop + 1
  done

let fail_line lineno fmt =
  Printf.ksprintf
    (fun msg -> failwith (Printf.sprintf "Graph_io: line %d: %s" lineno msg))
    fmt

let int_field lineno s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail_line lineno "%S is not an integer" s

let fields line = String.split_on_char ' ' line |> List.filter (( <> ) "")

let parse_pair (lineno, line) =
  match fields line with
  | [ a; b ] -> (int_field lineno a, int_field lineno b)
  | _ ->
      fail_line lineno "expected two fields %S, got %S" "u v" line

(* Shared validation for the undirected, directed and weighted
   readers: endpoints in range, no self-loops, no duplicate edges
   ([directed] distinguishes (u,v) from (v,u); antiparallel pairs are
   two distinct directed edges). Every rejection names the input line
   that carries the offending edge. Rows live as (lineno, u, v)
   triples in an off-heap buffer; the duplicate key packs both
   endpoints into one int. *)
let check_edges ~n ~directed (rows : Bigcsr.buf) =
  let count = rows.Bigcsr.len / 3 in
  let seen = Hashtbl.create (count * 2) in
  let data = rows.Bigcsr.data in
  for i = 0 to count - 1 do
    let lineno = Bigarray.Array1.unsafe_get data (3 * i)
    and u = Bigarray.Array1.unsafe_get data ((3 * i) + 1)
    and v = Bigarray.Array1.unsafe_get data ((3 * i) + 2) in
    if u < 0 || u >= n || v < 0 || v >= n then
      fail_line lineno "edge (%d, %d) out of range for n = %d" u v n;
    if u = v then fail_line lineno "self-loop at vertex %d" u;
    let a, b =
      if directed then (u, v) else if u < v then (u, v) else (v, u)
    in
    let key = (a * n) + b in
    match Hashtbl.find_opt seen key with
    | Some first ->
        fail_line lineno "duplicate edge (%d, %d), first seen on line %d"
          u v first
    | None -> Hashtbl.add seen key lineno
  done

(* Streams the file into (header, rows buffer): the header line is
   parsed first, every subsequent retained line must be "u v". *)
let parse_rows s =
  let header = ref None in
  let rows = Bigcsr.buf_create 3072 in
  iter_numbered_lines s (fun lineno line ->
      match !header with
      | None ->
          let n, m = parse_pair (lineno, line) in
          if n < 0 then fail_line lineno "negative vertex count %d" n;
          header := Some (n, m)
      | Some _ ->
          let u, v = parse_pair (lineno, line) in
          Bigcsr.buf_push rows lineno;
          Bigcsr.buf_push rows u;
          Bigcsr.buf_push rows v);
  match !header with
  | None -> failwith "Graph_io: empty input"
  | Some (n, m) -> (n, m, rows)

let check_count ~declared ~found =
  if found <> declared then
    failwith
      (Printf.sprintf
         "Graph_io: edge count does not match header (header says %d, \
          found %d)"
         declared found)

let iter_rows (rows : Bigcsr.buf) emit =
  let data = rows.Bigcsr.data in
  for i = 0 to (rows.Bigcsr.len / 3) - 1 do
    emit
      (Bigarray.Array1.unsafe_get data ((3 * i) + 1))
      (Bigarray.Array1.unsafe_get data ((3 * i) + 2))
  done

let of_edge_list s =
  let n, m, rows = parse_rows s in
  check_count ~declared:m ~found:(rows.Bigcsr.len / 3);
  check_edges ~n ~directed:false rows;
  Ugraph.of_edge_iter ~expected_edges:m ~n (iter_rows rows)

let directed_to_edge_list g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%d %d\n" (Dgraph.n g) (Dgraph.m g));
  Dgraph.iter_edges
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v))
    g;
  Buffer.contents buf

let directed_of_edge_list s =
  let n, m, rows = parse_rows s in
  check_count ~declared:m ~found:(rows.Bigcsr.len / 3);
  check_edges ~n ~directed:true rows;
  Dgraph.of_edge_iter ~expected_edges:m ~n (iter_rows rows)

let to_dot ?(highlight = Edge.Set.empty) g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "graph G {\n";
  for v = 0 to Ugraph.n g - 1 do
    Buffer.add_string buf (Printf.sprintf "  %d;\n" v)
  done;
  Ugraph.iter_edges
    (fun e ->
      let u, v = Edge.endpoints e in
      let attrs =
        if Edge.Set.mem e highlight then " [color=red, penwidth=2.0]" else ""
      in
      Buffer.add_string buf (Printf.sprintf "  %d -- %d%s;\n" u v attrs))
    g;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let weighted_to_edge_list g w =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%d %d\n" (Ugraph.n g) (Ugraph.m g));
  Ugraph.iter_edges
    (fun e ->
      let u, v = Edge.endpoints e in
      Buffer.add_string buf
        (Printf.sprintf "%d %d %g\n" u v (Weights.get w e)))
    g;
  Buffer.contents buf

let weighted_of_edge_list s =
  let header = ref None in
  let rows = Bigcsr.buf_create 3072 in
  let weights = ref [] in
  iter_numbered_lines s (fun lineno line ->
      match !header with
      | None ->
          let n, m = parse_pair (lineno, line) in
          if n < 0 then fail_line lineno "negative vertex count %d" n;
          header := Some (n, m)
      | Some _ -> (
          match fields line with
          | [ a; b; w ] -> (
              let u = int_field lineno a and v = int_field lineno b in
              match float_of_string_opt w with
              | Some w ->
                  Bigcsr.buf_push rows lineno;
                  Bigcsr.buf_push rows u;
                  Bigcsr.buf_push rows v;
                  weights := (u, v, w) :: !weights
              | None -> fail_line lineno "%S is not a weight" w)
          | _ ->
              fail_line lineno "expected three fields %S, got %S" "u v w" line));
  match !header with
  | None -> failwith "Graph_io: empty input"
  | Some (n, m) ->
      check_count ~declared:m ~found:(rows.Bigcsr.len / 3);
      check_edges ~n ~directed:false rows;
      let g = Ugraph.of_edge_iter ~expected_edges:m ~n (iter_rows rows) in
      (g, Weights.of_list ~default:1.0 (List.rev !weights))
