(** The rank query daemon.

    A server owns a bounded request queue drained by a small pool of
    worker threads, a two-tier result {!Cache}, and a keyed pool of warm
    phase-A DP tables.  Requests flow:

    + cache lookup by fingerprint digest (memory, then validated disk);
    + on a miss, {e coalescing}: if an identical query (same digest) is
      already queued or computing, the request attaches to that in-flight
      job instead of enqueueing a duplicate — one computation fans its
      payload out to every waiter, byte-identically;
    + otherwise the job is enqueued — unless the queue is at capacity, in
      which case the request is {e shed} with the retryable
      [Overloaded] error (backpressure, never unbounded memory);
    + a worker computes it on the {e warm path} when it can: the pool
      holds one resident {!Ir_core.Rank_grid} per query family
      ({!Fingerprint.family_key} — everything but materials, clock,
      repeater fraction and the power fields).  Each (materials, clock)
      value pair is one plane inside the grid, built once
      ({!Fingerprint.table_key}) at the full repeater budget with no
      power cap; any repeater fraction and any power budget (an area
      cap) is answered by budget rebinding
      ({!Ir_core.Rank_grid.query}) with boundary warm-starts, and a
      query whose own plane is missing but whose {e family} grid is
      resident grows the grid by one plane ([serve/grid_hits]) instead
      of starting cold.
      The warm path is used only when it is provably exact (a plane
      whose build truncated answers only its own full budget); anything
      else — greedy-algorithm queries included — takes the cold path,
      so a served payload is always byte-identical to a cold
      computation.

    Each waiter observes a per-request deadline; a timeout releases the
    {e waiter} with the [Timeout] error while the computation itself
    finishes and populates the cache for the next asker.  {!shutdown}
    drains: queued jobs complete, new queries get [Shutting_down].

    Every thread shares one process ({!Thread}), so computations do not
    run in parallel with each other — the concurrency this layer buys is
    in {e waiting} (coalescing, socket I/O, backpressure), which is
    where a query service spends its life.  Counters land on [serve/*]:
    [requests], [coalesced], [shed], [timeouts], [computes],
    [cold_computes], [table_builds], [table_hits], [table_restores]; gauge
    [serve/queue_depth_max]; spans [serve/request] and [serve/compute].
    All are deterministic for a sequentially replayed trace against a
    fresh server — test_serve's "bench gates" replay asserts exactly
    that. *)

type t

val create :
  ?workers:int ->
  ?queue_capacity:int ->
  ?table_pool:int ->
  ?request_timeout:float ->
  ?on_compute_start:(string -> unit) ->
  ?snapshot:Snapshot.t ->
  cache:Cache.t ->
  unit ->
  t
(** Starts the worker and timeout-ticker threads immediately.
    [workers] (default 2) drain the queue; [queue_capacity] (default 64)
    bounds it; [table_pool] (default 8) bounds the resident-grid pool
    (least-recently-used family evicted); [request_timeout] (default
    300 s) is each waiter's deadline.  [on_compute_start] runs in the
    worker thread just before a computation, with the job's digest — a
    test seam for making coalescing races deterministic; it must not
    call back into the server.  [snapshot] persists built warm tables
    and restores them instead of rebuilding (counted on
    [serve/table_restores]); only truncation-free tables are saved or
    accepted, so the warm path's exactness guarantee is unchanged. *)

val handle : t -> Protocol.request -> Protocol.response
(** Serves one request to completion (blocking — call from a
    per-connection thread or a stdio loop).  Never raises: validation
    failures are [Bad_request], computation bugs [Internal]. *)

val submit_query :
  t -> Fingerprint.t -> (string * string, Protocol.error) result
(** The query path of {!handle} on an already-validated fingerprint:
    [(payload, source)] with [source] one of ["memory"], ["disk"],
    ["cold"]. *)

val pending_waiters : t -> digest:string -> int
(** How many requests are currently {e attached} to the in-flight job
    for [digest] beyond the one that created it (0 when none is in
    flight).  A test seam: together with [on_compute_start] it lets a
    test hold a computation until all racing clients have coalesced. *)

val stats : t -> (string * int) list
(** Name-sorted [serve/*] and [serve_cache/*] counters (the [Stats]
    reply). *)

val shutdown : t -> unit
(** Begins draining: listeners stop accepting, queued jobs finish, new
    queries answer [Shutting_down].  Idempotent; does not block. *)

val join : t -> unit
(** Waits for the workers and the ticker to exit (call after
    {!shutdown}). *)

val draining : t -> bool

val handle_line : t -> string -> string
(** One raw request line in, one response line out (neither carries its
    newline) — {!handle} plus framing.  Never raises; malformed lines
    answer [Bad_request] with an empty id. *)

val serve_stdio : t -> Unix.file_descr -> Unix.file_descr -> unit
(** [serve_stdio t input output] is {!Tcp.connection_loop} over
    {!handle_line} on the two descriptors ([--stdio] mode passes stdin
    and stdout: the transport for tests, pipes and supervisors that
    speak stdin), with SIGPIPE ignored.  It has the socket paths'
    bounds: it returns at end of input, on a failed write, or after
    answering a line over {!Tcp.default_max_line} with [Bad_request]. *)

val serve_listeners :
  t ->
  ?tcp:string * int ->
  ?on_tcp_listen:(int -> unit) ->
  ?socket:string ->
  unit ->
  (unit, string) result
(** Accepts and serves on every configured listener at once — a
    Unix-domain [socket], a [tcp] [(host, port)] endpoint (port 0 binds
    an ephemeral port, reported through [on_tcp_listen]), or both
    ({!Tcp.bind_listeners}) — until
    {!shutdown}.  Each connection runs on its own thread through the
    hardened {!Tcp.serve_loop} (bounded request lines, SIGPIPE-proof
    writes, leak-free connection registry).  Installing a SIGTERM
    handler is the caller's job ({!shutdown} is async-signal-usable
    through a self-pipe).  Returns after the listeners closed, every
    connection thread finished, and the workers were joined; the socket
    file is removed on the way out.  [Error] if no listener was
    requested or a bind failed. *)

val serve_unix : t -> socket:string -> (unit, string) result
(** [serve_listeners] with only the Unix-domain [socket]. *)

val live_connections : t -> int
(** Currently open socket connections (0 once clients disconnect) — the
    leak detector the fd-churn regression test watches. *)
