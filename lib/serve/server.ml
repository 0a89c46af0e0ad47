let stat_requests = Ir_obs.counter "serve/requests"
let stat_coalesced = Ir_obs.counter "serve/coalesced"
let stat_shed = Ir_obs.counter "serve/shed"
let stat_timeouts = Ir_obs.counter "serve/timeouts"
let stat_computes = Ir_obs.counter "serve/computes"
let stat_cold = Ir_obs.counter "serve/cold_computes"
let stat_table_builds = Ir_obs.counter "serve/table_builds"
let stat_table_hits = Ir_obs.counter "serve/table_hits"
let stat_table_restores = Ir_obs.counter "serve/table_restores"
let stat_grid_hits = Ir_obs.counter "serve/grid_hits"
let gauge_queue = Ir_obs.gauge "serve/queue_depth_max"
let span_request = Ir_obs.span "serve/request"
let span_compute = Ir_obs.span "serve/compute"

type job = {
  digest : string;
  fp : Fingerprint.t;
  mutable payload : (string, Protocol.error) result option;
  mutable attached : int;  (* coalesced waiters beyond the creator *)
}

(* One resident grid family ({!Fingerprint.family_key}): a
   {!Ir_core.Rank_grid} holding every (materials, clock) plane the
   family's queries have touched, so a query that misses its own
   {!Fingerprint.table_key} but neighbors a warm family is answered from
   the resident grid (one plane build or — for a known plane — one
   phase-B search) instead of starting cold.  [entry_lock] serializes
   access within the family: the grid's planes and boundary hint are
   single-domain mutable state, and under systhreads the
   computations could not overlap anyway.  A truncated plane stays
   resident and answers only its own build budget (fraction 1.0, no
   power cap; {!Ir_core.Rank_grid.query}); its narrower table keys are
   computed cold, without rebuild loops. *)
type pool_entry = {
  entry_lock : Mutex.t;
  mutable grid : Ir_core.Rank_grid.t option;  (* None until first query *)
}

type t = {
  cache : Cache.t;
  snapshot : Snapshot.t option;
  queue_capacity : int;
  request_timeout : float;
  on_compute_start : string -> unit;
  mutex : Mutex.t;
  cond : Condition.t;
  queue : job Queue.t;
  inflight : (string, job) Hashtbl.t;
  pool : (string, pool_entry) Lru.t;  (* under [mutex] *)
  draining : bool Atomic.t;
  ticker_stop : bool Atomic.t;
  stop_pipe_r : Unix.file_descr;
  stop_pipe_w : Unix.file_descr;
  registry : Tcp.registry;  (* live socket connections *)
  mutable threads : Thread.t list;  (* workers + ticker *)
}

let draining t = Atomic.get t.draining

(* ---- warm-table pool -------------------------------------------------- *)

(* The family's pool entry, created on first use; past [table_pool]
   families the least recently used one is evicted.  A worker still
   holding an evicted entry keeps its own reference; dropping it from
   the pool only stops new queries from finding it. *)
let pool_entry t key =
  Mutex.lock t.mutex;
  let entry =
    match Lru.find t.pool key with
    | Some e -> e
    | None ->
        let e = { entry_lock = Mutex.create (); grid = None } in
        ignore (Lru.add t.pool key e);
        e
  in
  Mutex.unlock t.mutex;
  entry

(* The warm path is taken only when provably exact: DP algorithm, and
   the query's (materials, clock) plane, built at the full repeater
   budget, answers it by {!Ir_core.Rank_grid.query}'s rule — one
   phase-B search that rebinds the budget, fraction and any power cap
   alike on a truncation-free plane (the {!Ir_core.Rank_dp.rebudget}
   displacement argument), or the plane's own full-budget search on a
   truncated one.  Everything else falls through to a cold compute, so
   served outcomes are always byte-identical to
   [Fingerprint.compute_cold]. *)
let compute_outcome t (fp : Fingerprint.t) =
  let warm () =
    match fp.algo with
    | Fingerprint.Greedy -> None
    | Fingerprint.Dp ->
        let entry = pool_entry t (Fingerprint.family_key fp) in
        Mutex.lock entry.entry_lock;
        Fun.protect ~finally:(fun () -> Mutex.unlock entry.entry_lock)
        @@ fun () ->
        (* The family's full-budget problem: fraction 1.0 and no power
           cap, so every query's budget rebinds downward.  Only the first
           query of a family builds it from scratch; every later plane
           derives from the resident grid's base via the rescale-reuse
           constructors (bit-equal to from-scratch —
           [Problem.with_materials] / [with_clock] rebuild exactly what
           the knob moves).  Building it costs a WLD generation, so it is
           built at most once per request, and only when a new grid or a
           verified snapshot needs it. *)
        let full =
          lazy
            (Ir_assign.Problem.with_power_budget
               (Ir_assign.Problem.with_repeater_fraction
                  (Fingerprint.problem fp) 1.0)
               infinity)
        in
        let grid =
          match entry.grid with
          | Some g -> g
          | None ->
              let g = Ir_core.Rank_grid.resident (Lazy.force full) in
              entry.grid <- Some g;
              g
        in
        let materials = Ir_ia.Materials.v ~k:fp.k ~miller:fp.miller () in
        let plane = Ir_core.Rank_grid.point ~materials ~clock:fp.clock () in
        (match Ir_core.Rank_grid.plane_tables grid plane with
        | Some _ -> Ir_obs.incr stat_table_hits
        | None -> (
            if Ir_core.Rank_grid.planes grid > 0 then
              (* A neighboring family member left its grid resident:
                 this table-key miss grows it by one plane instead of
                 starting cold. *)
              Ir_obs.incr stat_grid_hits;
            let key = Fingerprint.table_key fp in
            (* Prefer a snapshotted build from a previous process.  Only
               truncation-free tables are ever saved, but re-check anyway
               — the exactness invariant must not rest on what a disk
               claims. *)
            let restored =
              match t.snapshot with
              | None -> None
              | Some s -> (
                  match
                    Snapshot.load s ~key ~problem:(fun () -> Lazy.force full)
                  with
                  | Some tables
                    when Ir_core.Rank_dp.table_truncations tables = 0 ->
                      Some tables
                  | Some _ | None -> None)
            in
            match restored with
            | Some tables ->
                Ir_obs.incr stat_table_restores;
                Ir_core.Rank_grid.adopt grid plane tables
            | None -> (
                Ir_obs.incr stat_table_builds;
                (* Built at the grid's base fraction, 1.0; answering the
                   query is left to [query] below. *)
                let tables = Ir_core.Rank_grid.build_plane grid plane in
                match t.snapshot with
                | Some s when Ir_core.Rank_dp.table_truncations tables = 0 ->
                    Snapshot.save s ~key tables
                | Some _ | None -> ())));
        Option.map fst
          (Ir_core.Rank_grid.query ~activity:fp.activity
             ~power_budget:fp.power_budget grid
             (Ir_core.Rank_grid.point ~materials ~clock:fp.clock
                ~fraction:fp.repeater_fraction ()))
  in
  match warm () with
  | Some outcome -> outcome
  | None ->
      Ir_obs.incr stat_cold;
      Fingerprint.compute_cold fp

let compute_payload t fp =
  Ir_obs.time span_compute @@ fun () ->
  Protocol.result_payload (compute_outcome t fp)

(* ---- workers ---------------------------------------------------------- *)

let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec next () =
    if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
    else if draining t then None
    else begin
      (* Woken by submitters and by the ticker (which also converts a
         [shutdown] — async-signal-safe, so it cannot broadcast — into a
         wakeup within one tick). *)
      Condition.wait t.cond t.mutex;
      next ()
    end
  in
  match next () with
  | None -> Mutex.unlock t.mutex
  | Some job ->
      Mutex.unlock t.mutex;
      Ir_obs.incr stat_computes;
      t.on_compute_start job.digest;
      let result =
        match compute_payload t job.fp with
        | payload -> Ok payload
        | exception e -> Error (Protocol.Internal (Printexc.to_string e))
      in
      (* Publish to the cache before waking waiters: a racing duplicate
         query that misses the inflight table must still hit the cache. *)
      (match result with
      | Ok payload -> Cache.store t.cache ~digest:job.digest payload
      | Error _ -> ());
      Mutex.lock t.mutex;
      job.payload <- Some result;
      Hashtbl.remove t.inflight job.digest;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex;
      worker_loop t

let ticker_loop t =
  while not (Atomic.get t.ticker_stop) do
    Thread.delay 0.05;
    Mutex.lock t.mutex;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex
  done

let create ?(workers = 2) ?(queue_capacity = 64) ?(table_pool = 8)
    ?(request_timeout = 300.) ?(on_compute_start = fun _ -> ()) ?snapshot
    ~cache () =
  let stop_pipe_r, stop_pipe_w = Unix.pipe ~cloexec:true () in
  let t =
    {
      cache;
      snapshot;
      queue_capacity = max 1 queue_capacity;
      request_timeout;
      on_compute_start;
      mutex = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      inflight = Hashtbl.create 64;
      pool = Lru.create table_pool;
      draining = Atomic.make false;
      ticker_stop = Atomic.make false;
      stop_pipe_r;
      stop_pipe_w;
      registry = Tcp.registry ();
      threads = [];
    }
  in
  let workers = max 1 workers in
  t.threads <-
    Thread.create ticker_loop t
    :: List.init workers (fun _ -> Thread.create worker_loop t);
  t

let shutdown t =
  (* Callable from a SIGTERM handler: an atomic store and a pipe write,
     no locks.  Sleeping workers notice at the next ticker broadcast;
     the accept loop notices through the pipe immediately. *)
  if not (Atomic.exchange t.draining true) then
    ignore (Unix.write t.stop_pipe_w (Bytes.of_string "x") 0 1)

let join t =
  Atomic.set t.ticker_stop true;
  (* [shutdown] cannot broadcast (it may run in a signal handler), and
     the ticker's broadcasts end with it, so a worker that went back to
     [Condition.wait] after the last tick would sleep forever.  One
     broadcast under the mutex, after the ticker is told to stop, wakes
     every such worker to see [draining]. *)
  Mutex.lock t.mutex;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  List.iter (fun th -> try Thread.join th with _ -> ()) t.threads;
  t.threads <- []

(* ---- the request path ------------------------------------------------- *)

let pending_waiters t ~digest =
  Mutex.lock t.mutex;
  let n =
    match Hashtbl.find_opt t.inflight digest with
    | Some job -> job.attached
    | None -> 0
  in
  Mutex.unlock t.mutex;
  n

(* Wait (holding [t.mutex]) until the job resolves or the deadline
   passes.  OCaml's [Condition] has no timed wait; the ticker bounds how
   long past the deadline a waiter can sleep. *)
let rec await_job t job ~deadline =
  match job.payload with
  | Some r -> r
  | None ->
      if Ir_exec.now () > deadline then begin
        Ir_obs.incr stat_timeouts;
        (* The computation carries on and still populates the cache;
           only this waiter gives up. *)
        Error Protocol.Timeout
      end
      else begin
        Condition.wait t.cond t.mutex;
        await_job t job ~deadline
      end

let submit_query t fp =
  let digest = Fingerprint.digest fp in
  match Cache.find t.cache ~digest with
  | Some (payload, Cache.Memory) -> Ok (payload, "memory")
  | Some (payload, Cache.Disk) -> Ok (payload, "disk")
  | None ->
      let deadline = Ir_exec.now () +. t.request_timeout in
      Mutex.lock t.mutex;
      Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) @@ fun () ->
      if draining t then Error Protocol.Shutting_down
      else begin
        let job =
          match Hashtbl.find_opt t.inflight digest with
          | Some job ->
              job.attached <- job.attached + 1;
              Ir_obs.incr stat_coalesced;
              Ok job
          | None ->
              if Queue.length t.queue >= t.queue_capacity then begin
                Ir_obs.incr stat_shed;
                Error Protocol.Overloaded
              end
              else begin
                let job = { digest; fp; payload = None; attached = 0 } in
                Hashtbl.replace t.inflight digest job;
                Queue.push job t.queue;
                Ir_obs.set_max gauge_queue (Queue.length t.queue);
                Condition.broadcast t.cond;
                Ok job
              end
        in
        match job with
        | Error e -> Error e
        | Ok job -> (
            match await_job t job ~deadline with
            | Ok payload ->
                (* Coalesced waiters and the creator answer identically:
                   the payload was computed for this very request, so the
                   source is "cold" for all of them — byte-identical
                   responses for identical concurrent queries. *)
                Ok (payload, "cold")
            | Error e -> Error e)
      end

let stats t =
  ignore t;
  (* Both serve/* and serve_cache/* — the whole serving layer. *)
  (Ir_obs.filter ~prefix:"serve" (Ir_obs.snapshot ())).Ir_obs.counters

let handle t (req : Protocol.request) =
  Ir_obs.time span_request @@ fun () ->
  Ir_obs.incr stat_requests;
  let body =
    match req.op with
    | Protocol.Ping -> Protocol.Pong
    | Protocol.Stats -> Protocol.Stats_reply (stats t)
    | Protocol.Query q -> (
        match Protocol.fingerprint_of_query q with
        | Error msg -> Protocol.Error (Protocol.Bad_request msg)
        | Ok fp -> (
            match submit_query t fp with
            | Ok (payload, source) -> Protocol.Result { source; payload }
            | Error e -> Protocol.Error e))
  in
  { Protocol.id = req.id; body }

(* ---- transports ------------------------------------------------------- *)

let handle_line t line =
  match Protocol.decode_request line with
  | Ok req -> Protocol.encode_response (handle t req)
  | Error e ->
      Protocol.encode_response { Protocol.id = ""; body = Protocol.Error e }

let serve_stdio t input output =
  (* A supervisor pipe can vanish as abruptly as a socket client. *)
  Tcp.ignore_sigpipe ();
  Tcp.connection_loop ~handler:(handle_line t) input output

let live_connections t = Tcp.live_connections t.registry

let serve_listeners t ?tcp ?on_tcp_listen ?socket () =
  match Tcp.bind_listeners ?tcp ?on_tcp_listen ?socket () with
  | Error e -> Error e
  | Ok (fds, cleanup) ->
      Tcp.serve_loop ~registry:t.registry ~stop:t.stop_pipe_r
        ~draining:(fun () -> draining t)
        ~handler:(handle_line t) fds;
      cleanup ();
      shutdown t;
      join t;
      Ok ()

let serve_unix t ~socket = serve_listeners t ~socket ()
