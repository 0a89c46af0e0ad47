let stat_requests = Ir_obs.counter "serve_router/requests"
let stat_forwarded = Ir_obs.counter "serve_router/forwarded"
let stat_retries = Ir_obs.counter "serve_router/retries"
let stat_shard_errors = Ir_obs.counter "serve_router/shard_errors"
let stat_restarts = Ir_obs.counter "serve_shard/restarts"

(* One pooled connection to a shard: a raw fd plus its buffered reader
   (the reader must live with the fd — it may hold bytes of a previous
   response's tail, though in practice each request yields exactly one
   line). *)
type conn = { fd : Unix.file_descr; reader : Tcp.line_reader }

type link = {
  socket : string;
  mu : Mutex.t;
  mutable free : conn list;  (* idle connections, reused across requests *)
}

type t = {
  shards : int;
  dir : string;
  links : link array;
  pids : int array;
  exe : string;
  argvs : string array array;  (* per-shard argv, kept for respawns *)
  pid_mu : Mutex.t;  (* serializes death checks and respawns *)
  registry : Tcp.registry;
  draining : bool Atomic.t;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
}

let shards t = t.shards
let shard_socket dir i = Filename.concat dir (Printf.sprintf "shard%d.sock" i)
let shard_sockets t = Array.init t.shards (fun i -> shard_socket t.dir i)
let shard_pids t = Array.copy t.pids

(* ---- spawning the fleet ------------------------------------------------ *)

(* Shards are real [ia_rank serve] processes started with
   [Unix.create_process]: no copy of this process's threads, locks or GC
   state survives into a child, and what the fleet load-balances is
   exactly the binary operators deploy.  Unlike [Unix.fork],
   [create_process] stays legal after this process has spawned domains
   (OCaml 5 refuses [fork] once any domain was created), so a fleet can
   start after a parallel sweep in the same process.  Shards share
   [cache_dir] (the disk cache is multi-writer safe) and [snapshot_dir];
   each listens on its own unix socket under [dir]. *)
let child_argv ~exe ~socket ~workers ~cache_entries ~table_pool
    ~queue_capacity ~request_timeout ~cache_dir ~snapshot_dir =
  let opt name = function Some v -> [ name; v ] | None -> [] in
  Array.of_list
    ([
       exe; "serve"; "--socket"; socket; "--verbosity"; "quiet";
       "--workers"; string_of_int workers;
       "--cache-entries"; string_of_int cache_entries;
       "--table-pool"; string_of_int table_pool;
       "--queue-capacity"; string_of_int queue_capacity;
       "--request-timeout"; Printf.sprintf "%g" request_timeout;
     ]
    @ opt "--cache-dir" cache_dir
    @ opt "--snapshot-dir" snapshot_dir)

let spawn ~exe ~argv =
  Unix.create_process exe argv Unix.stdin Unix.stdout Unix.stderr

let kill_fleet pids =
  Array.iter
    (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
    pids;
  Array.iter
    (fun pid ->
      (* Bounded grace, then SIGKILL: a wedged shard must not wedge the
         router's own shutdown. *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
            if Unix.gettimeofday () > deadline then begin
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (Unix.waitpid [] pid)
            end
            else begin
              Thread.delay 0.02;
              wait ()
            end
        | _ -> ()
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      wait ())
    pids

let start ?(workers = 2) ?(cache_entries = 512) ?(table_pool = 8)
    ?(queue_capacity = 64) ?(request_timeout = 300.) ?cache_dir ?snapshot_dir
    ~exe ~shards ~dir () =
  let shards = max 1 shards in
  match Ir_sweep.Export.ensure_dir dir with
  | Error e -> Error e
  | Ok () ->
      let argvs =
        Array.init shards (fun i ->
            child_argv ~exe ~socket:(shard_socket dir i) ~workers
              ~cache_entries ~table_pool ~queue_capacity ~request_timeout
              ~cache_dir ~snapshot_dir)
      in
      let pids = Array.make shards 0 in
      match Array.iteri (fun i argv -> pids.(i) <- spawn ~exe ~argv) argvs with
      | exception Unix.Unix_error (e, _, _) ->
          (* Reap the shards already started; unused slots hold pid 0. *)
          kill_fleet
            (Array.of_list (List.filter (( <> ) 0) (Array.to_list pids)));
          Error
            (Printf.sprintf "cannot start %s: %s" exe (Unix.error_message e))
      | () ->
      (* A shard's socket file appears once it is bound and listening. *)
      let deadline = Unix.gettimeofday () +. 30.0 in
      let rec await i =
        if i >= shards then Ok ()
        else if Sys.file_exists (shard_socket dir i) then await (i + 1)
        else if Unix.gettimeofday () > deadline then
          Error (Printf.sprintf "shard %d did not come up within 30s" i)
        else begin
          Thread.delay 0.02;
          await i
        end
      in
      (match await 0 with
      | Error e ->
          kill_fleet pids;
          Error e
      | Ok () ->
          let stop_r, stop_w = Unix.pipe ~cloexec:true () in
          Ok
            {
              shards;
              dir;
              links =
                Array.init shards (fun i ->
                    {
                      socket = shard_socket dir i;
                      mu = Mutex.create ();
                      free = [];
                    });
              pids;
              exe;
              argvs;
              pid_mu = Mutex.create ();
              registry = Tcp.registry ();
              draining = Atomic.make false;
              stop_r;
              stop_w;
            })

(* ---- shard RPC --------------------------------------------------------- *)

let connect_shard link =
  match Tcp.connect_unix ~socket:link.socket with
  | Ok fd -> Some { fd; reader = Tcp.line_reader fd }
  | Error _ -> None

let checkout link =
  Mutex.lock link.mu;
  let pooled =
    match link.free with
    | [] -> None
    | c :: rest ->
        link.free <- rest;
        Some c
  in
  Mutex.unlock link.mu;
  match pooled with Some c -> Some c | None -> connect_shard link

let checkin link c =
  Mutex.lock link.mu;
  link.free <- c :: link.free;
  Mutex.unlock link.mu

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Send one raw line, read one raw line; pool the connection on success,
   discard it on any failure. *)
let rpc_conn link conn line =
  if Tcp.write_line conn.fd line then
    match Tcp.read_line conn.reader with
    | `Line resp ->
        checkin link conn;
        Some resp
    | `Eof | `Overlong ->
        close_conn conn;
        None
  else begin
    close_conn conn;
    None
  end

(* Supervisor step: a request just failed on a {e fresh} connection, so
   the shard is either wedged or dead.  [waitpid WNOHANG] tells them
   apart — a reaped (or vanished) pid is proof of death, and only then
   does the router spawn one replacement onto the same socket path.
   [pid_mu] serializes the check-and-respawn, so a storm of failing
   requests yields one spawn: whoever arrives second finds the fresh pid
   un-reapable (alive) and simply reconnects.  Returns [true] when a
   reconnect is worth attempting. *)
let try_restart t i =
  Mutex.lock t.pid_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.pid_mu) @@ fun () ->
  if Atomic.get t.draining then false
  else
    let pid = t.pids.(i) in
    let dead =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> false (* still running — wedged or just slow, not ours *)
      | _ -> true
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    in
    if not dead then false
    else begin
      let socket = shard_socket t.dir i in
      (* The killed shard never unlinked its socket; the replacement
         must bind the same path, so clear it first. *)
      (try Unix.unlink socket with Unix.Unix_error _ -> ());
      match spawn ~exe:t.exe ~argv:t.argvs.(i) with
      | exception Unix.Unix_error _ -> false
      | pid ->
      t.pids.(i) <- pid;
      Ir_obs.incr stat_restarts;
      let deadline = Unix.gettimeofday () +. 30.0 in
      let rec await () =
        if Sys.file_exists socket then true
        else if Unix.gettimeofday () > deadline then false
        else begin
          Thread.delay 0.02;
          await ()
        end
      in
      (* A replacement that never binds surfaces as the next failed
         connection — and another supervisor pass. *)
      await ()
    end

let forward t i line =
  let link = t.links.(i) in
  let first =
    match checkout link with
    | None -> None
    | Some conn -> rpc_conn link conn line
  in
  match first with
  | Some resp -> Some resp
  | None -> (
      (* The pooled connection may simply have been stale (shard
         restarted, idle teardown); one retry on a provably fresh
         connection separates that from a shard that is really gone. *)
      Ir_obs.incr stat_retries;
      let fresh =
        match connect_shard link with
        | None -> None
        | Some conn -> rpc_conn link conn line
      in
      match fresh with
      | Some resp -> Some resp
      | None -> (
          (* Even the fresh connection failed: let the supervisor check
             for a dead child and respawn it, then try once more. *)
          if not (try_restart t i) then None
          else
            match connect_shard link with
            | None -> None
            | Some conn -> rpc_conn link conn line))

(* ---- routing ----------------------------------------------------------- *)

(* Partition by resident-grid family, not by request digest: every
   repeater fraction, materials value and clock of a (node, WLD,
   structure) family must land on the same shard so the fleet builds
   each plane's phase-A tables exactly once and neighboring queries hit
   that shard's resident grid.  The key is already a uniformly
   distributed hex digest; its leading 32 bits are hash enough. *)
let route_key t key =
  let prefix = String.sub key 0 (min 8 (String.length key)) in
  match int_of_string ("0x" ^ prefix) with
  | v -> v mod t.shards
  | exception Failure _ -> 0

(* ---- request handling -------------------------------------------------- *)

let encode_error ~id e =
  Protocol.encode_response { Protocol.id; body = Protocol.Error e }

let shard_stats t i =
  let line =
    Protocol.encode_request { Protocol.id = "router-stats"; op = Protocol.Stats }
  in
  match forward t i line with
  | None -> None
  | Some resp -> (
      match Protocol.decode_response resp with
      | Ok { Protocol.body = Protocol.Stats_reply kvs; _ } -> Some kvs
      | Ok _ | Error _ -> None)

(* Aggregated fleet stats: the sum of every shard's counters plus the
   router's own [serve_router/*].  Summing is the right combination for
   counters (requests, computes, table_builds...); the only gauge in the
   set, [serve/queue_depth_max], becomes a fleet-wide total rather than
   a max — acceptable for an operational snapshot. *)
let aggregate_stats t =
  let tbl = Hashtbl.create 64 in
  let add (k, v) =
    Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  Array.iteri
    (fun i _ ->
      match shard_stats t i with
      | Some kvs -> List.iter add kvs
      | None -> Ir_obs.incr stat_shard_errors)
    t.links;
  List.iter add
    (Ir_obs.filter ~prefix:"serve_router" (Ir_obs.snapshot ())).Ir_obs.counters;
  let kvs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  Protocol.Stats_reply (List.sort compare kvs)

(* Queries are forwarded as the original request line, verbatim, and the
   shard's response line is relayed verbatim: the router re-encodes
   nothing on the hot path, so a sharded answer is byte-identical to the
   single-process server's. *)
let handle_line t line =
  Ir_obs.incr stat_requests;
  if Atomic.get t.draining then
    match Protocol.decode_request line with
    | Ok req -> encode_error ~id:req.Protocol.id Protocol.Shutting_down
    | Error e -> encode_error ~id:"" e
  else
    match Protocol.decode_request line with
    | Error e -> encode_error ~id:"" e
    | Ok req -> (
        match req.Protocol.op with
        | Protocol.Ping ->
            Protocol.encode_response
              { Protocol.id = req.Protocol.id; body = Protocol.Pong }
        | Protocol.Stats ->
            Protocol.encode_response
              { Protocol.id = req.Protocol.id; body = aggregate_stats t }
        | Protocol.Query q -> (
            match Protocol.fingerprint_of_query q with
            | Error msg ->
                encode_error ~id:req.Protocol.id (Protocol.Bad_request msg)
            | Ok fp -> (
                let i = route_key t (Fingerprint.family_key fp) in
                Ir_obs.incr stat_forwarded;
                match forward t i line with
                | Some resp -> resp
                | None ->
                    Ir_obs.incr stat_shard_errors;
                    encode_error ~id:req.Protocol.id
                      (Protocol.Internal
                         (Printf.sprintf "shard %d unavailable" i)))))

(* ---- lifecycle --------------------------------------------------------- *)

let shutdown t =
  (* Async-signal-usable, like {!Server.shutdown}: an atomic store plus
     a self-pipe write. *)
  if not (Atomic.exchange t.draining true) then
    ignore (Unix.write t.stop_w (Bytes.of_string "x") 0 1)

let live_connections t = Tcp.live_connections t.registry

let stop t =
  Array.iter
    (fun link ->
      Mutex.lock link.mu;
      let conns = link.free in
      link.free <- [];
      Mutex.unlock link.mu;
      List.iter close_conn conns)
    t.links;
  kill_fleet t.pids;
  (* Cleanly exited shards unlink their own sockets; reap any a killed
     shard left behind. *)
  Array.iter
    (fun s -> try Unix.unlink s with Unix.Unix_error _ -> ())
    (shard_sockets t);
  (try Unix.close t.stop_r with Unix.Unix_error _ -> ());
  try Unix.close t.stop_w with Unix.Unix_error _ -> ()

let serve t ?tcp ?on_tcp_listen ?socket () =
  Tcp.ignore_sigpipe ();
  match Tcp.bind_listeners ?tcp ?on_tcp_listen ?socket () with
  | Error e ->
      stop t;
      Error e
  | Ok (fds, cleanup) ->
      Tcp.serve_loop ~registry:t.registry ~stop:t.stop_r
        ~draining:(fun () -> Atomic.get t.draining)
        ~handler:(handle_line t) fds;
      cleanup ();
      stop t;
      Ok ()
