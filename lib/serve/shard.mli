(** Sharded serve tier: a fleet of [ia_rank serve] worker processes
    behind one router.

    {!start} spawns [shards] copies of the serve binary
    ([Unix.create_process], legal even after this process has started
    domains), each a
    full single-process {!Server} listening on its own unix socket under
    [dir], all sharing one disk {!Cache} directory and one {!Snapshot}
    directory (both are safe for concurrent writers).  The router then
    accepts client connections (TCP and/or unix, via {!serve}) and
    forwards each query — {e the original request line, verbatim} — to
    the shard owning its warm-table family, relaying the response line
    verbatim back.  Routing hashes {!Fingerprint.table_key}, so every
    repeater fraction of a family lands on the same shard and the fleet
    builds each family's phase-A DP tables exactly once; because nothing
    is re-encoded in flight, a sharded answer is byte-identical to a
    single-process one.

    Per shard the router keeps a small pool of idle connections, retried
    once on a fresh connection when a pooled one turns out stale.  When
    even the fresh connection fails, the router plays supervisor: a
    [waitpid WNOHANG] that reaps the shard's pid is proof of death, and
    the router spawns one replacement onto the same socket path (counted
    in [serve_shard/restarts]) and retries once more.  A shard that is
    merely wedged — alive but unresponsive — is never killed or
    replaced; its query answers with the [Internal] error while the rest
    of the fleet keeps serving.

    [Ping] answers locally; [Stats] fans out to every shard and returns
    the summed counters plus the router's own [serve_router/*]
    ([requests], [forwarded], [retries], [shard_errors]).

    The router itself computes nothing and holds no tables: it is a few
    hash lookups and line copies per request, which is what lets one
    process front many compute-bound shards. *)

type t

val start :
  ?workers:int ->
  ?cache_entries:int ->
  ?table_pool:int ->
  ?queue_capacity:int ->
  ?request_timeout:float ->
  ?cache_dir:string ->
  ?snapshot_dir:string ->
  exe:string ->
  shards:int ->
  dir:string ->
  unit ->
  (t, string) result
(** Spawns the fleet and waits (up to 30 s) for every shard's socket to
    come up; on failure the already-spawned shards are killed.  [exe] is
    the serve binary (normally [Sys.executable_name]); the per-shard
    options are forwarded to each worker's [serve] command line. *)

val serve :
  t ->
  ?tcp:string * int ->
  ?on_tcp_listen:(int -> unit) ->
  ?socket:string ->
  unit ->
  (unit, string) result
(** Accepts and routes until {!shutdown}, on a TCP endpoint (port 0
    binds ephemerally, reported through [on_tcp_listen]), a unix socket,
    or both — the same hardened accept loop as
    {!Server.serve_listeners}.  On return the listeners are closed and
    the fleet is stopped ({!stop}). *)

val handle_line : t -> string -> string
(** One raw request line in, one response line out — the routing step
    without a listener, exposed for tests. *)

val route_key : t -> string -> int
(** Which shard owns a {!Fingerprint.table_key} (exposed so tests and
    the bench can assert the family-affinity invariant). *)

val shards : t -> int

val shard_sockets : t -> string array
(** Each shard's own unix socket — direct per-shard access for
    per-shard stats in the bench. *)

val shard_pids : t -> int array
(** A copy of the fleet's current pids (a restarted shard's entry is its
    replacement's pid) — exposed so the crash-recovery test can SIGKILL
    a real shard and assert the supervisor respawned it. *)

val live_connections : t -> int
(** Currently open router client connections. *)

val shutdown : t -> unit
(** Begins draining the router; async-signal-usable (atomic flag plus
    self-pipe, callable from a SIGTERM handler).  Idempotent. *)

val stop : t -> unit
(** SIGTERMs the fleet (SIGKILL after a 10 s grace), reaps the
    children, closes pooled connections and removes leftover shard
    sockets.  {!serve} calls this on the way out; call it directly only
    if {!serve} was never entered. *)
