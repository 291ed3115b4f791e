(** Blocking, buffered spannerd client — the side of the wire used by
    [spanner_cli session] and perfbench's serve driver.

    One TCP connection, blocking sockets, a read buffer for line
    reassembly. Threads may each own one client (nothing is shared);
    a single client must not be shared between threads. *)

type t

val connect : ?host:string -> port:int -> unit -> t
(** Raises [Unix.Unix_error] if the daemon is not there. *)

val close : t -> unit

val send_line : t -> string -> unit
(** Write one raw line (the newline is appended). *)

val recv_line : t -> string option
(** Next complete line from the daemon ([None] on EOF), CR stripped. *)

val request : t -> Wire.request -> (Wire.reply, string) result
(** Send one request and read frames until its reply arrives,
    skipping interleaved [EVENT] frames (they belong to the
    subscription stream, not to this exchange). [Error] on EOF or an
    unparseable frame. *)
