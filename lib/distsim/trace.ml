type round_stat = {
  round : int;
  messages : int;
  bits : int;
  max_bits : int;
  vertices_stepped : int;
  vertices_done : int;
  congest_violations : int;
  dropped : int;
  crashed : int;
  elapsed_ns : int;
  minor_words : int;
  physical : int;
}

type drop_reason = Dropped_random | Dropped_crashed | Dropped_cut

type fault_kind = Crash of int | Cut of int * int | Restore of int * int

type event =
  | Round_begin of int
  | Round_end of round_stat
  | Send of { src : int; dst : int; bits : int; round : int }
  | Phase of { vertex : int; name : string; round : int }
  | Counter of { name : string; value : float; round : int }
  | Fault_injected of { round : int; kind : fault_kind }
  | Message_dropped of {
      src : int;
      dst : int;
      round : int;
      reason : drop_reason;
    }

type sink = Null | Sink of { emit : event -> unit; sends : bool }

let null = Null
let is_null = function Null -> true | Sink _ -> false
let wants_sends = function Null -> false | Sink { sends; _ } -> sends
let emit sink ev = match sink with Null -> () | Sink { emit; _ } -> emit ev
let custom ?(sends = true) emit = Sink { emit; sends }

let tee a b =
  match (a, b) with
  | Null, s | s, Null -> s
  | Sink a, Sink b ->
      Sink
        {
          sends = a.sends || b.sends;
          emit =
            (fun ev ->
              a.emit ev;
              b.emit ev);
        }

(* Round-driven phase stamping. Protocols used to emit [Phase] markers
   from inside [spec.step], deduplicated through a shared mutable
   cell — fine sequentially, a data race once rounds step vertices on
   several domains. Deriving the marker from [Round_begin] instead
   keeps all emission on the engine's merge thread and is equivalent:
   every executed round steps at least one vertex (otherwise the
   engine would have terminated), so "first stepped vertex of round r"
   and "round r began" mark the same rounds. *)
let with_round_phases f = function
  | Null -> Null
  | Sink { emit; sends } ->
      Sink
        {
          sends;
          emit =
            (fun ev ->
              emit ev;
              match ev with
              | Round_begin r -> (
                  match f r with
                  | Some (name, round) ->
                      emit (Phase { vertex = -1; name; round })
                  | None -> ())
              | _ -> ());
        }

(* ------------------------------------------------------------------ *)
(* In-memory per-round statistics. *)

type series = {
  rounds : round_stat array;
  phases : (string * int) list;
  counters : (string * float) list;
}

type stats = {
  mutable rows : round_stat list;  (* reverse order *)
  mutable row_count : int;
  phase_tbl : (string, int ref) Hashtbl.t;
  counter_tbl : (string, float ref) Hashtbl.t;
}

let stats () =
  {
    rows = [];
    row_count = 0;
    phase_tbl = Hashtbl.create 16;
    counter_tbl = Hashtbl.create 16;
  }

let bump tbl zero add name v =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := add !r v
  | None -> Hashtbl.replace tbl name (ref (add zero v))

let stats_sink st =
  Sink
    {
      sends = false;
      emit =
        (function
        | Round_end row ->
            st.rows <- row :: st.rows;
            st.row_count <- st.row_count + 1
        | Phase { name; _ } -> bump st.phase_tbl 0 ( + ) name 1
        | Counter { name; value; _ } ->
            bump st.counter_tbl 0.0 ( +. ) name value
        | Fault_injected _ -> bump st.counter_tbl 0.0 ( +. ) "faults" 1.0
        | Round_begin _ | Send _ | Message_dropped _ -> ());
    }

let sorted_bindings tbl =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let zero_stat =
  {
    round = 0;
    messages = 0;
    bits = 0;
    max_bits = 0;
    vertices_stepped = 0;
    vertices_done = 0;
    congest_violations = 0;
    dropped = 0;
    crashed = 0;
    elapsed_ns = 0;
    minor_words = 0;
    physical = 0;
  }

let series st =
  let rounds = Array.make st.row_count zero_stat in
  (* rows are in reverse order; fill from the back. *)
  let rec fill i = function
    | [] -> ()
    | row :: rest ->
        rounds.(i) <- row;
        fill (i - 1) rest
  in
  fill (st.row_count - 1) st.rows;
  {
    rounds;
    phases = sorted_bindings st.phase_tbl;
    counters = sorted_bindings st.counter_tbl;
  }

(* ------------------------------------------------------------------ *)
(* JSON codec. Flat objects with string and number values only. *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let event_to_json ev =
  let buf = Buffer.create 96 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match ev with
  | Round_begin r -> out "{\"ev\":\"round_begin\",\"round\":%d}" r
  | Round_end s ->
      out
        "{\"ev\":\"round_end\",\"round\":%d,\"messages\":%d,\"bits\":%d,\
         \"max_bits\":%d,\"stepped\":%d,\"done\":%d,\"violations\":%d,\
         \"dropped\":%d,\"crashed\":%d,\"ns\":%d,\"minor_words\":%d,\
         \"physical\":%d}"
        s.round s.messages s.bits s.max_bits s.vertices_stepped
        s.vertices_done s.congest_violations s.dropped s.crashed s.elapsed_ns
        s.minor_words s.physical
  | Send { src; dst; bits; round } ->
      out "{\"ev\":\"send\",\"round\":%d,\"src\":%d,\"dst\":%d,\"bits\":%d}"
        round src dst bits
  | Phase { vertex; name; round } ->
      out "{\"ev\":\"phase\",\"round\":%d,\"vertex\":%d,\"name\":\"" round
        vertex;
      escape_into buf name;
      out "\"}"
  | Counter { name; value; round } ->
      out "{\"ev\":\"counter\",\"round\":%d,\"name\":\"" round;
      escape_into buf name;
      out "\",\"value\":%s}" (json_float value)
  | Fault_injected { round; kind } -> (
      match kind with
      | Crash v ->
          out "{\"ev\":\"fault\",\"round\":%d,\"kind\":\"crash\",\"v\":%d}"
            round v
      | Cut (u, w) ->
          out
            "{\"ev\":\"fault\",\"round\":%d,\"kind\":\"cut\",\"u\":%d,\
             \"w\":%d}"
            round u w
      | Restore (u, w) ->
          out
            "{\"ev\":\"fault\",\"round\":%d,\"kind\":\"restore\",\"u\":%d,\
             \"w\":%d}"
            round u w)
  | Message_dropped { src; dst; round; reason } ->
      out
        "{\"ev\":\"drop\",\"round\":%d,\"src\":%d,\"dst\":%d,\
         \"reason\":\"%s\"}"
        round src dst
        (match reason with
        | Dropped_random -> "random"
        | Dropped_crashed -> "crashed"
        | Dropped_cut -> "cut"));
  Buffer.contents buf

(* A minimal parser for the flat objects above. *)
type json_value = Jstr of string | Jnum of float

exception Parse of string

let parse_flat_object line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match line.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some x when x = c -> incr pos
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match line.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            if !pos + 1 >= n then fail "dangling escape";
            (match line.[!pos + 1] with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'u' ->
                (* Decode to UTF-8 bytes, pairing UTF-16 surrogates,
                   so the codec round-trips every string
                   [escape_into] can emit (it passes non-ASCII bytes
                   through verbatim). *)
                let read_hex at =
                  if at + 3 >= n then fail "short \\u escape";
                  match int_of_string_opt ("0x" ^ String.sub line at 4) with
                  | Some c -> c
                  | None -> fail "bad \\u escape"
                in
                let code = read_hex (!pos + 2) in
                let scalar =
                  if code >= 0xD800 && code <= 0xDBFF then
                    if
                      !pos + 7 >= n
                      || line.[!pos + 6] <> '\\'
                      || line.[!pos + 7] <> 'u'
                    then fail "unpaired high surrogate"
                    else begin
                      let lo = read_hex (!pos + 8) in
                      if lo < 0xDC00 || lo > 0xDFFF then
                        fail "unpaired high surrogate";
                      (* Consume the second escape's 6 chars here;
                         the shared [+ 2] below still covers this
                         escape's backslash. *)
                      pos := !pos + 6;
                      0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00)
                    end
                  else if code >= 0xDC00 && code <= 0xDFFF then
                    fail "unpaired low surrogate"
                  else code
                in
                Buffer.add_utf_8_uchar buf (Uchar.of_int scalar);
                pos := !pos + 4
            | c -> fail (Printf.sprintf "unknown escape '\\%c'" c));
            pos := !pos + 2;
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    skip_ws ();
    let start = !pos in
    while
      !pos < n
      &&
      match line.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail "expected a number";
    match float_of_string_opt (String.sub line start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  expect '{';
  let fields = ref [] in
  skip_ws ();
  if peek () = Some '}' then incr pos
  else begin
    let rec members () =
      let key = (skip_ws (); parse_string ()) in
      expect ':';
      skip_ws ();
      let value =
        match peek () with
        | Some '"' -> Jstr (parse_string ())
        | _ -> Jnum (parse_number ())
      in
      fields := (key, value) :: !fields;
      skip_ws ();
      match peek () with
      | Some ',' ->
          incr pos;
          members ()
      | Some '}' -> incr pos
      | _ -> fail "expected ',' or '}'"
    in
    members ()
  end;
  skip_ws ();
  if !pos <> n then fail "trailing content";
  List.rev !fields

let parse_flat_json line =
  try Ok (parse_flat_object line) with Parse msg -> Error msg

let event_of_json line =
  try
    let fields = parse_flat_object line in
    let str key =
      match List.assoc_opt key fields with
      | Some (Jstr s) -> s
      | Some (Jnum _) -> raise (Parse (key ^ ": expected a string"))
      | None -> raise (Parse ("missing field " ^ key))
    in
    let num key =
      match List.assoc_opt key fields with
      | Some (Jnum f) -> f
      | Some (Jstr _) -> raise (Parse (key ^ ": expected a number"))
      | None -> raise (Parse ("missing field " ^ key))
    in
    let int key = int_of_float (num key) in
    (* Absent-tolerant variant, for fields added after the codec
       shipped (pre-PR4 streams have no "minor_words"). *)
    let int_opt key ~default =
      match List.assoc_opt key fields with
      | Some (Jnum f) -> int_of_float f
      | Some (Jstr _) -> raise (Parse (key ^ ": expected a number"))
      | None -> default
    in
    let ev =
      match str "ev" with
      | "round_begin" -> Round_begin (int "round")
      | "round_end" ->
          Round_end
            {
              round = int "round";
              messages = int "messages";
              bits = int "bits";
              max_bits = int "max_bits";
              vertices_stepped = int "stepped";
              vertices_done = int "done";
              congest_violations = int "violations";
              (* Absent-tolerant: pre-PR5 streams have no fault
                 counters (and pre-PR4 no "minor_words"). *)
              dropped = int_opt "dropped" ~default:0;
              crashed = int_opt "crashed" ~default:0;
              elapsed_ns = int "ns";
              minor_words = int_opt "minor_words" ~default:0;
              (* Absent-tolerant: pre-PR8 streams predate the
                 physical/logical split, where the two coincide. *)
              physical = int_opt "physical" ~default:(int "messages");
            }
      | "send" ->
          Send
            {
              src = int "src";
              dst = int "dst";
              bits = int "bits";
              round = int "round";
            }
      | "phase" ->
          Phase { vertex = int "vertex"; name = str "name"; round = int "round" }
      | "counter" ->
          Counter
            { name = str "name"; value = num "value"; round = int "round" }
      | "fault" ->
          let kind =
            match str "kind" with
            | "crash" -> Crash (int "v")
            | "cut" -> Cut (int "u", int "w")
            | "restore" -> Restore (int "u", int "w")
            | other -> raise (Parse ("unknown fault kind " ^ other))
          in
          Fault_injected { round = int "round"; kind }
      | "drop" ->
          let reason =
            match str "reason" with
            | "random" -> Dropped_random
            | "crashed" -> Dropped_crashed
            | "cut" -> Dropped_cut
            | other -> raise (Parse ("unknown drop reason " ^ other))
          in
          Message_dropped
            { src = int "src"; dst = int "dst"; round = int "round"; reason }
      | other -> raise (Parse ("unknown event kind " ^ other))
    in
    Ok ev
  with Parse msg -> Error msg

let jsonl ?(sends = true) ?send_filter oc =
  let keep_send src dst =
    match send_filter with None -> true | Some f -> f ~src ~dst
  in
  Sink
    {
      sends;
      emit =
        (fun ev ->
          let write () =
            output_string oc (event_to_json ev);
            output_char oc '\n'
          in
          match ev with
          | Send { src; dst; _ } | Message_dropped { src; dst; _ } ->
              if sends && keep_send src dst then write ()
          | _ -> write ());
    }
