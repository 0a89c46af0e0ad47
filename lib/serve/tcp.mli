(** Hardened line-protocol transport shared by every serve surface.

    Every line the serve tier reads or writes — the unix-socket and TCP
    listeners, stdio serving, the shard router and the client — goes
    through this module, so their hostile-peer defenses cannot drift
    apart:

    - {b SIGPIPE is ignored} ({!ignore_sigpipe}) and every write goes
      through {!write_line}, which turns a peer disconnect mid-response
      into a counted failure ([serve_net/write_failures]) instead of
      process death.
    - {b Reads are bounded} ({!read_line}): a request line longer than
      {!default_max_line} gets a [Bad_request] answer and the
      conversation ends ({!connection_loop}), rather than buffering
      without limit the way a channel's [input_line] would.
    - {b Connections are registered} ({!registry}): each live connection
      holds a slot it removes {e itself} from (closing its fd under the
      registry lock) when it ends.  Drain shuts down only descriptors
      still registered — never a closed fd whose number the kernel may
      have reused for something unrelated — and the registry cannot grow
      past the number of simultaneously live connections.

    Counters land on [serve_net/*]: [connections], [overlong_lines],
    [write_failures], [read_failures]. *)

val ignore_sigpipe : unit -> unit
(** Idempotently sets [SIGPIPE] to ignore (no-op on platforms without
    it).  Called by {!serve_loop}; entry points that write to
    possibly-dead peers outside it (stdio serving, the shard router)
    call it themselves. *)

val default_max_line : int
(** Request-line size cap (8 MiB) applied by {!read_line} by default. *)

(** {1 Bounded line I/O over raw descriptors} *)

type line_reader
(** Buffered newline-delimited reader over a file descriptor. *)

val line_reader : Unix.file_descr -> line_reader

val read_line :
  ?max_bytes:int -> line_reader -> [ `Line of string | `Eof | `Overlong ]
(** Next line (without its newline).  [`Overlong] once a single line
    exceeds [max_bytes] — the stream is not resynchronized; close it.
    Read errors count on [serve_net/read_failures] and surface as
    end-of-stream. *)

val write_line : Unix.file_descr -> string -> bool
(** Full write of [line] plus a newline; [false] (plus a
    [write_failures] count) if the peer is gone.  Never raises on I/O
    errors. *)

val connection_loop :
  handler:(string -> string) -> Unix.file_descr -> Unix.file_descr -> unit
(** [connection_loop ~handler input output] answers each line read from
    [input] with [handler line] on [output] until end of stream, a
    failed write or an overlong line — which is answered with
    [Bad_request] and counted on [serve_net/overlong_lines] before the
    loop ends.  Socket connections pass their fd twice; stdio serving
    passes stdin and stdout. *)

(** {1 Endpoints} *)

val connect_tcp :
  host:string -> port:int -> (Unix.file_descr, string) result
(** Client side of a [tcp] listener. *)

val connect_unix : socket:string -> (Unix.file_descr, string) result
(** Client side of a unix-socket listener. *)

val bind_listeners :
  ?tcp:string * int ->
  ?on_tcp_listen:(int -> unit) ->
  ?socket:string ->
  unit ->
  (Unix.file_descr list * (unit -> unit), string) result
(** Binds whichever listeners are configured (at least one required):
    a unix-domain [socket] (a stale socket file left by a dead server is
    replaced; any other kind of file in the way is an error) and a [tcp]
    [(host, port)] endpoint with [SO_REUSEADDR] (port 0 binds an
    ephemeral port; the bound port is reported through
    [on_tcp_listen]).  Returns the listening fds and a cleanup that
    closes them and unlinks the socket file. *)

(** {1 Accept loop and connection registry} *)

type registry
(** Live-connection table of one serve loop. *)

val registry : unit -> registry

val live_connections : registry -> int
(** Number of currently registered (open) connections — a leak detector
    for tests: it returns to 0 once clients disconnect. *)

val serve_loop :
  registry:registry ->
  stop:Unix.file_descr ->
  draining:(unit -> bool) ->
  handler:(string -> string) ->
  Unix.file_descr list ->
  unit
(** Accepts on every listening fd in the list until the [stop] pipe
    becomes readable or [draining ()] turns true, serving each
    connection on its own thread through [handler] (one request line in,
    one response line out — the handler must not raise).  On shutdown,
    still-registered connections get their read side shut down (their
    in-flight request still answers) and are joined before returning.
    The listening fds are {e not} closed — the caller owns them. *)
