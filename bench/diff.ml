(* bench_diff — compare two bench trajectory files (bench/main.exe --json)
   anchor by anchor and flag regressions.

     dune exec bench/diff.exe -- OLD.json NEW.json [options]

   Every leaf of both files is flattened to a slash path
   (section/anchor/field) and the intersection is compared:

   - timing fields (wall-clock, per-run nanoseconds, GC pressure) are
     noise: NEW may exceed OLD by the tolerance before the row counts
     as a regression, and rows whose OLD value sits below the floor
     are skipped outright — ratios of sub-millisecond measurements
     mean nothing (the checked-in trajectories contain a 1694x "jump"
     on a 0.14 ms micro-entry that is pure harness re-anchoring);
   - ratio-like fields (speedup, *_ratio) and machine identity (par/)
     are skipped: they divide one noisy clock by another;
   - everything else (rounds, messages, bits, spanner sizes, identical
     / valid flags, histograms) is deterministic and must match
     exactly — mismatches warn by default and fail under --strict.

   Exits 0 when no row fails, 1 on regressions, 2 on usage/parse
   errors. Keys present in only one file are reported, never fatal:
   a fresh single-experiment run is a legitimate NEW side. Whole
   sections (top-level path components) present in only one file are
   called out by name as "section added"/"section removed" — that is
   what a schema bump looks like, and naming it lets check.sh keep
   gating OLD-vs-NEW across bumps instead of pinning both files to
   one schema.

   Defaults are calibrated against BENCH_PR5.json vs BENCH_PR6.json:
   the worst above-floor timing drift between those checked-in runs is
   1.77x and GC fields only improved, so tolerance 1.0 (fail above
   2x) separates noise from regression with margin on both sides. *)

(* ---- minimal recursive-descent JSON ------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos >= n then '\000' else s.[!pos] in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected %C" c);
    advance ()
  in
  let expect_lit lit v =
    String.iter (fun c -> expect c) lit;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '\000' -> fail "unterminated string"
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              (* bench files are ASCII; keep the escape verbatim *)
              Buffer.add_string buf "\\u"
          | c -> fail (Printf.sprintf "bad escape %C" c));
          advance ();
          go ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let numeric c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while numeric (peek ()) do advance () done;
    if !pos = start then fail "expected a value";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> Str (parse_string ())
    | 't' -> expect_lit "true" (Bool true)
    | 'f' -> expect_lit "false" (Bool false)
    | 'n' -> expect_lit "null" Null
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then (advance (); Obj [])
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | ',' -> advance (); members ()
            | '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then (advance (); Arr [])
        else begin
          let items = ref [] in
          let rec elems () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | ',' -> advance (); elems ()
            | ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elems ();
          Arr (List.rev !items)
        end
    | _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ---- flattening and field classes -------------------------------- *)

(* Leaves in file order, keyed "section/anchor/field". Arrays are
   leaves (round-series histograms compare as a unit). *)
let flatten (j : json) : (string * json) list =
  let out = ref [] in
  let rec go path j =
    match j with
    | Obj fields ->
        List.iter
          (fun (k, v) -> go (if path = "" then k else path ^ "/" ^ k) v)
          fields
    | leaf -> out := (path, leaf) :: !out
  in
  go "" j;
  List.rev !out

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i =
    if i + nn > nh then false
    else if String.sub hay i nn = needle then true
    else at (i + 1)
  in
  nn = 0 || at 0

let has_prefix p s = String.length s >= String.length p
  && String.sub s 0 (String.length p) = p

let has_suffix suf s =
  let ns = String.length s and nf = String.length suf in
  ns >= nf && String.sub s (ns - nf) nf = suf

(* What kind of comparison a path gets. [Timing floor] carries the
   below-which-we-skip floor in the field's native unit. *)
type cls = Skip | Timing of float | Exact

let classify ~floor_ms path =
  if path = "schema" then Skip (* reported separately *)
  else if has_prefix "par/" path then Skip (* machine identity *)
  else if contains path "speedup" || contains path "ratio" then Skip
  else if has_suffix "minor_words" path || has_suffix "allocated_bytes" path
  then
    (* GC pressure. [allocated_bytes] only advances at minor-heap
       flushes, so for runs allocating less than a few minor heaps the
       delta measures heap phase, not the run — deltas below ~10M
       words/bytes are phase-dominated and carry no signal. *)
    Timing 1e7
  else if contains path "_ns" || has_prefix "micro_ns_per_run/" path then
    Timing (floor_ms *. 1e6)
  else if contains path "_ms" || has_prefix "wall_clock" path then
    Timing floor_ms
  else if contains path "_us" then Timing (floor_ms *. 1e3)
  else Exact

(* ---- comparison --------------------------------------------------- *)

let fnum v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let str_of = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num v -> fnum v
  | Str s -> Printf.sprintf "%S" s
  | Arr items ->
      "["
      ^ String.concat ","
          (List.map (function Num v -> fnum v | _ -> "?") items)
      ^ "]"
  | Obj _ -> "{...}"

let () =
  let usage =
    "usage: bench_diff OLD.json NEW.json [--tolerance T] [--floor-ms F] \
     [--strict]\n\
     \  --tolerance T  allowed timing growth: NEW/OLD above 1+T fails \
     (default 1.0, i.e. fail above 2x)\n\
     \  --floor-ms F   skip timing rows whose OLD value is below F \
     milliseconds (default 1.0; ns fields scale to F*1e6, GC fields \
     floor at 1e7 words/bytes)\n\
     \  --strict       deterministic-field mismatches (counts, flags, \
     histograms) fail instead of warn\n"
  in
  let tolerance = ref 1.0 in
  let floor_ms = ref 1.0 in
  let strict = ref false in
  let files = ref [] in
  let die msg =
    prerr_string msg;
    exit 2
  in
  let rec parse_args = function
    | [] -> ()
    | "--tolerance" :: v :: rest ->
        (match float_of_string_opt v with
        | Some t when t >= 0.0 -> tolerance := t
        | _ -> die usage);
        parse_args rest
    | "--floor-ms" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f >= 0.0 -> floor_ms := f
        | _ -> die usage);
        parse_args rest
    | "--strict" :: rest ->
        strict := true;
        parse_args rest
    | ("--help" | "-h") :: _ ->
        print_string usage;
        exit 0
    | f :: rest when String.length f > 0 && f.[0] <> '-' ->
        files := f :: !files;
        parse_args rest
    | f :: _ -> die (Printf.sprintf "bench_diff: unknown option %s\n%s" f usage)
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let old_file, new_file =
    match List.rev !files with
    | [ a; b ] -> (a, b)
    | _ -> die usage
  in
  let load path =
    let text =
      try
        let ic = open_in path in
        let len = in_channel_length ic in
        let s = really_input_string ic len in
        close_in ic;
        s
      with Sys_error e -> die (Printf.sprintf "bench_diff: %s\n" e)
    in
    try parse_json text
    with Parse msg -> die (Printf.sprintf "bench_diff: %s: %s\n" path msg)
  in
  let jo = load old_file and jn = load new_file in
  let fo = flatten jo and fn = flatten jn in
  let tbl = Hashtbl.create 512 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) fn;
  let schema_of flat =
    match List.assoc_opt "schema" flat with Some (Str s) -> s | _ -> "?"
  in
  Printf.printf "bench_diff: %s (%s) vs %s (%s)  tolerance=%.2f floor=%.1fms%s\n"
    old_file (schema_of fo) new_file (schema_of fn) !tolerance !floor_ms
    (if !strict then " strict" else "");
  let compared = ref 0
  and ok = ref 0
  and improved = ref 0
  and skipped = ref 0
  and below_floor = ref 0
  and warns = ref 0
  and fails = ref 0
  and only_old_keys = ref [] in
  let row status path old_s new_s note =
    Printf.printf "  %-6s %-44s %14s -> %-14s %s\n" status path old_s new_s
      note
  in
  List.iter
    (fun (path, vo) ->
      match Hashtbl.find_opt tbl path with
      | None -> only_old_keys := path :: !only_old_keys
      | Some vn -> (
          incr compared;
          match classify ~floor_ms:!floor_ms path with
          | Skip -> incr skipped
          | Timing floor -> (
              match (vo, vn) with
              | Num o, Num nv ->
                  if o < floor then incr below_floor
                  else
                    let ratio = nv /. o in
                    if ratio > 1.0 +. !tolerance then begin
                      incr fails;
                      row "FAIL" path (fnum o) (fnum nv)
                        (Printf.sprintf "(%.2fx > %.2fx tolerance)" ratio
                           (1.0 +. !tolerance))
                    end
                    else if ratio < 1.0 /. (1.0 +. !tolerance) then begin
                      incr improved;
                      row "good" path (fnum o) (fnum nv)
                        (Printf.sprintf "(%.2fx)" ratio)
                    end
                    else incr ok
              | _ ->
                  incr warns;
                  row "warn" path (str_of vo) (str_of vn)
                    "(timing field is not a number)")
          | Exact ->
              if vo = vn then incr ok
              else begin
                let status = if !strict then "FAIL" else "warn" in
                if !strict then incr fails else incr warns;
                row status path (str_of vo) (str_of vn)
                  "(deterministic field changed)"
              end))
    fo;
  let only_old = List.rev !only_old_keys in
  let tbl_old = Hashtbl.create 512 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl_old k v) fo;
  let only_new =
    List.filter_map
      (fun (k, _) -> if Hashtbl.mem tbl_old k then None else Some k)
      fn
  in
  (* Whole-section adds/removes, named: the top-level components that
     exist in exactly one file. A schema bump is supposed to look like
     this, so the report says which sections moved instead of leaving
     a bare only-in-one count to decode. *)
  let section_of path =
    match String.index_opt path '/' with
    | Some i -> String.sub path 0 i
    | None -> path
  in
  let sections flat =
    List.fold_left
      (fun acc (k, _) ->
        let s = section_of k in
        if List.mem s acc then acc else s :: acc)
      [] flat
    |> List.rev
  in
  let so = sections fo and sn = sections fn in
  let added = List.filter (fun s -> not (List.mem s so)) sn in
  let removed = List.filter (fun s -> not (List.mem s sn)) so in
  let keys_in sections_lst keys =
    List.length (List.filter (fun k -> List.mem (section_of k) sections_lst) keys)
  in
  List.iter
    (fun s ->
      Printf.printf "  section added:   %S (%d keys, only in NEW)\n" s
        (keys_in [ s ] only_new))
    added;
  List.iter
    (fun s ->
      Printf.printf "  section removed: %S (%d keys, only in OLD)\n" s
        (keys_in [ s ] only_old))
    removed;
  Printf.printf
    "summary: %d compared (%d ok, %d improved, %d skipped, %d below floor), \
     %d warning%s, %d regression%s; %d key%s only in OLD, %d only in NEW \
     (%d section%s added, %d removed)\n"
    !compared !ok !improved !skipped !below_floor !warns
    (if !warns = 1 then "" else "s")
    !fails
    (if !fails = 1 then "" else "s")
    (List.length only_old)
    (if List.length only_old = 1 then "" else "s")
    (List.length only_new)
    (List.length added)
    (if List.length added = 1 then "" else "s")
    (List.length removed);
  if !fails > 0 then begin
    Printf.printf "bench_diff: FAIL (%d regression%s)\n" !fails
      (if !fails = 1 then "" else "s");
    exit 1
  end
  else Printf.printf "bench_diff: OK\n"
