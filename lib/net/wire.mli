(** The spannerd wire protocol: line-oriented, length-free, typed.

    Every frame is one ['\n']-terminated line of printable ASCII
    (CRLF tolerated on input). Requests:

    {v
    LOAD <family> <n> <p> <seed>   build a graph, precompute its 2-spanner
    LOADFILE <path>                same, from an edge-list file
    QUERY <u> <v>                  stretch-bounded path over the spanner
    CHURN <±u-v> ...               batched edge delta + incremental repair
    STATS                          deterministic counters, flat JSON
    SUBSCRIBE / UNSUBSCRIBE        stream engine trace events
    QUIT                           close this connection
    SHUTDOWN                       stop the whole daemon
    v}

    Replies are single lines too; the only asynchronous frame is
    [EVENT {...}], pushed to subscribed connections. Parsing and
    printing round-trip exactly — the codec tests pin it — and the
    printers emit no wall-clock, pid or address material, so a
    scripted session's reply transcript is byte-identical across
    daemon runs. *)

type churn_op = Ins of int * int | Del of int * int

type request =
  | Load of { family : string; n : int; p : float; seed : int }
  | Loadfile of string
  | Query of int * int
  | Churn of churn_op list
  | Stats
  | Subscribe
  | Unsubscribe
  | Quit
  | Shutdown

type reply =
  | Loaded of { n : int; m : int; spanner : int; rounds : int }
  | Path of int list  (** [PATH <hops> <v0> ... <vk>] — at least one vertex *)
  | Nopath of int * int
  | Churned of {
      tick : int;
      deleted : int;
      inserted : int;
      broken : int;
      dirty : int;
      spanner : int;
      valid : bool;
          (** the LOAD's whole-graph check and every tick's local
              verdict since, conjoined *)
    }
  | Stats_reply of (string * float) list
      (** field order is part of the frame — printed verbatim *)
  | Subscribed
  | Unsubscribed
  | Bye
  | Shutting_down
  | Event of Distsim.Trace.event
      (** rendered with {!Distsim.Trace.event_to_json}; the daemon
          zeroes the nondeterministic [Round_end] fields before
          emitting *)
  | Err of string  (** the message must not contain newlines *)

val print_request : request -> string
(** One line, without the terminating newline. *)

val parse_request : string -> (request, string) result
(** Case-sensitive verbs, whitespace-separated fields. The [Error]
    string is a human-readable reason, safe to echo in an [ERR]
    reply. *)

val print_reply : reply -> string
val parse_reply : string -> (reply, string) result

val churn_op_to_string : churn_op -> string
(** [+u-v] for inserts, [-u-v] for deletes. *)
