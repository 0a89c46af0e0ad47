let recommended_jobs () = max 1 (Domain.recommended_domain_count () - 1)
let hardware_jobs () = max 1 (Domain.recommended_domain_count ())

(* Spawning more domains than the hardware can run is a pure loss for
   this CPU-bound workload: OCaml 5 minor collections are stop-the-world,
   so every collection must wait for each runnable-but-descheduled domain
   to get a timeslice and reach its safepoint.  Measured on the Table-4
   bench leg (one core): jobs=4 took 5.1 s against 2.4 s sequential with
   identical work — pure oversubscription, not GC frequency (the minor
   heap ratchet below was already active).  Worker counts are therefore
   clamped to the hardware parallelism unless a caller that {e wants}
   contended multi-domain scheduling — the cross-domain determinism
   tests, which exist to exercise real interleaving — opts out. *)
let oversubscribe = Atomic.make false
let set_allow_oversubscribe b = Atomic.set oversubscribe b

let override = Atomic.make None

let set_default_jobs jobs =
  Atomic.set override (Option.map (fun j -> max 1 j) jobs)

let with_default_jobs jobs f =
  let saved = Atomic.get override in
  set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Atomic.set override saved) f

let env_jobs () =
  match Sys.getenv_opt "IA_RANK_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> Some j
      | _ -> None)

let default_jobs () =
  match Atomic.get override with
  | Some j -> j
  | None -> (
      match env_jobs () with Some j -> j | None -> recommended_jobs ())

type pool_stats = {
  jobs : int;
  wall_seconds : float;
  units : int array;
  busy_seconds : float array;
  steals : int array;
}

let last_stats : pool_stats option Atomic.t = Atomic.make None
let last_pool_stats () = Atomic.get last_stats

let effective_parallelism s =
  if s.wall_seconds <= 0.0 then 1.0
  else Array.fold_left ( +. ) 0.0 s.busy_seconds /. s.wall_seconds

(* Deterministic counters (totals are scheduling-independent; both the
   sequential and the pooled path count identically) plus a busy-time
   span, which is cumulative across worker domains.  The [exec/sched/]
   instruments are the exception: they describe the schedule itself —
   how many tasks moved between workers, how often the hardware clamp
   bit — so their totals legitimately differ between jobs=1 and jobs=N
   runs.  Identity checks strip them with [Ir_obs.filter_out
   ~prefix:"exec/sched/"]. *)
let stat_runs = Ir_obs.counter "exec/pool_runs"
let stat_items = Ir_obs.counter "exec/items_processed"
let span_busy = Ir_obs.span "exec/worker_busy"
let stat_steals = Ir_obs.counter "exec/sched/steals"
let stat_clamped = Ir_obs.counter "exec/sched/jobs_clamped"

(* OCaml 5 minor collections are stop-the-world: every running domain
   must reach a safepoint before any of them can collect, so with the
   default 256k-word minor heap an allocating workload degenerates into
   a synchronization storm as soon as several domains run (measured on
   the Table-4 bench leg: the jobs=4 run was ~3x slower than jobs=1 on
   one core from this alone).  Raising the per-domain minor heap bounds
   the sync rate.

   The raise is {e scoped}, not a one-way ratchet: the pre-pool size is
   restored once the outermost pool scope drains, so a long-lived
   process that briefly fans out (the serve daemon answering one batched
   request) does not keep a 4M-word minor heap forever.  A caller's own
   larger setting is still respected — we only raise, never shrink, and
   we only restore if the size at exit is exactly the one we installed
   (a concurrent [Gc.set] by the caller wins).  Nested pools and
   [with_pool_heap] share one depth counter, so consecutive runs inside
   a scope resize once, not per run — repeated resizing itself forces
   collections. *)
let pool_minor_heap_words = 4 * 1024 * 1024

let heap_depth = Atomic.make 0
let heap_saved : int option Atomic.t = Atomic.make None

let enter_pool_heap () =
  if Atomic.fetch_and_add heap_depth 1 = 0 then begin
    let g = Gc.get () in
    if g.Gc.minor_heap_size < pool_minor_heap_words then begin
      Atomic.set heap_saved (Some g.Gc.minor_heap_size);
      Gc.set { g with Gc.minor_heap_size = pool_minor_heap_words }
    end
  end

let leave_pool_heap () =
  if Atomic.fetch_and_add heap_depth (-1) = 1 then
    match Atomic.exchange heap_saved None with
    | None -> ()
    | Some words ->
        let g = Gc.get () in
        if g.Gc.minor_heap_size = pool_minor_heap_words then
          Gc.set { g with Gc.minor_heap_size = words }

let with_pool_heap f =
  enter_pool_heap ();
  Fun.protect ~finally:leave_pool_heap f

(* One parallel run, scheduled by work stealing over pre-seeded
   per-worker queues.

   [tasks] is an array of contiguous input ranges [(lo, hi)) in {e
   dispatch priority} order (input order for plain maps, heaviest-first
   for weighted group maps).  Worker [w]'s queue is the subsequence of
   tasks at positions [w, w + jobs, w + 2*jobs, ...] — round-robin
   seeding, so the heaviest tasks land spread across all queues and
   each queue descends in priority front to back.  Every task carries a
   CAS claim flag; a task runs exactly once, on whichever worker wins
   the claim.  Owners drain their own queue front to back (heaviest
   first); a worker that runs out steals by scanning the other queues
   {e from the tail} — the cheapest still-unclaimed work, farthest from
   where its owner is working, Chase–Lev style.  No task is ever added
   after the seed, so one claim-and-run pass over every queue is a
   complete schedule: termination needs no retry loop.

   Results are written to the slot of the element that produced them,
   which is what makes the output order independent of scheduling.  A
   raising [f] marks its slot instead of tearing the pool down; after
   the join, the earliest-{e dispatched} recorded exception is re-raised
   with its original backtrace (for plain maps the dispatch order is the
   input order, so this is the lowest-indexed one).  Worker w writes
   only units.(w)/busy.(w)/steals.(w); [Domain.join] makes the writes
   visible to the caller, same as [results] — per-worker tallies merge
   into the shared counters deterministically after the join, never
   from inside the workers. *)
let run_pool ~jobs ~tasks f xs =
  enter_pool_heap ();
  Fun.protect ~finally:leave_pool_heap @@ fun () ->
  let n = Array.length xs in
  let nt = Array.length tasks in
  let results = Array.make n None in
  let errors = Array.make n None in
  let claimed = Array.init nt (fun _ -> Atomic.make false) in
  let units = Array.make jobs 0 in
  let busy = Array.make jobs 0.0 in
  let steals = Array.make jobs 0 in
  let queue_len w = if w >= nt then 0 else ((nt - w - 1) / jobs) + 1 in
  let run w t ~stolen =
    let lo, hi = tasks.(t) in
    units.(w) <- units.(w) + (hi - lo);
    if stolen then steals.(w) <- steals.(w) + 1;
    for i = lo to hi - 1 do
      match f xs.(i) with
      | y -> results.(i) <- Some y
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          errors.(i) <- Some (e, bt)
    done
  in
  let worker w =
    let t0 = Unix.gettimeofday () in
    let mine = queue_len w in
    for k = 0 to mine - 1 do
      let t = w + (k * jobs) in
      if Atomic.compare_and_set claimed.(t) false true then
        run w t ~stolen:false
    done;
    for dv = 1 to jobs - 1 do
      let v = (w + dv) mod jobs in
      for k = queue_len v - 1 downto 0 do
        let t = v + (k * jobs) in
        if Atomic.compare_and_set claimed.(t) false true then
          run w t ~stolen:true
      done
    done;
    let dt = Unix.gettimeofday () -. t0 in
    busy.(w) <- dt;
    Ir_obs.record span_busy dt
  in
  let t0 = Unix.gettimeofday () in
  let spawned =
    Array.init (jobs - 1) (fun w -> Domain.spawn (fun () -> worker (w + 1)))
  in
  worker 0;
  Array.iter Domain.join spawned;
  Atomic.set last_stats
    (Some
       {
         jobs;
         wall_seconds = Unix.gettimeofday () -. t0;
         units;
         busy_seconds = busy;
         steals;
       });
  Ir_obs.incr stat_runs;
  Ir_obs.add stat_items n;
  Ir_obs.add stat_steals (Array.fold_left ( + ) 0 steals);
  Array.iter
    (fun (lo, hi) ->
      for i = lo to hi - 1 do
        match errors.(i) with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ()
      done)
    tasks;
  Array.map (function Some y -> y | None -> assert false) results

(* The jobs = 1 degenerate pool: same accounting, no domain spawned. *)
let seq_map f xs =
  let n = Array.length xs in
  let t0 = Unix.gettimeofday () in
  let result = Array.map f xs in
  let dt = Unix.gettimeofday () -. t0 in
  Atomic.set last_stats
    (Some
       {
         jobs = 1;
         wall_seconds = dt;
         units = [| n |];
         busy_seconds = [| dt |];
         steals = [| 0 |];
       });
  Ir_obs.incr stat_runs;
  Ir_obs.add stat_items n;
  Ir_obs.record span_busy dt;
  result

(* The hardware clamp used to be silent, so `-j 8` on a 4-core box was
   an invisible no-op; now it warns once per process on stderr and
   counts every occurrence (scheduling-dependent by nature, hence under
   exec/sched/). *)
let clamp_warned = Atomic.make false

let resolve_jobs jobs n =
  let j = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let j =
    if Atomic.get oversubscribe then j
    else begin
      let hw = hardware_jobs () in
      if j > hw then begin
        Ir_obs.incr stat_clamped;
        if not (Atomic.exchange clamp_warned true) then
          Printf.eprintf
            "ia-rank: requested %d jobs exceeds the hardware parallelism \
             (%d); running %d workers \
             (Ir_exec.set_allow_oversubscribe lifts the clamp)\n%!"
            j hw hw
      end;
      min j hw
    end
  in
  min j (max 1 n)

let seq_tasks n chunk =
  let nt = (n + chunk - 1) / chunk in
  Array.init nt (fun c -> (c * chunk, min n ((c + 1) * chunk)))

let parallel_map ?jobs f xs =
  let n = Array.length xs in
  let jobs = resolve_jobs jobs n in
  if jobs <= 1 then seq_map f xs
  else run_pool ~jobs ~tasks:(seq_tasks n 1) f xs

let parallel_map_chunked ?jobs ?chunk f xs =
  let n = Array.length xs in
  let jobs = resolve_jobs jobs n in
  let chunk =
    match chunk with
    | Some c when c <= 0 ->
        invalid_arg "Ir_exec.parallel_map_chunked: chunk must be > 0"
    | Some c -> c
    | None -> max 1 (n / (jobs * 4))
  in
  if jobs <= 1 then seq_map f xs
  else run_pool ~jobs ~tasks:(seq_tasks n chunk) f xs

let parallel_list_map ?jobs f xs =
  Array.to_list (parallel_map ?jobs f (Array.of_list xs))

(* Heaviest-first dispatch: the priority permutation orders items by
   decreasing [weight] (ties by input index, so the schedule is
   deterministic), and the seeding spreads that order round-robin across
   the worker queues.  With unequal task costs — one sweep group
   dominating a fused run, the 10M-gate cell dominating a cross-node
   matrix — starting the heavy items first bounds the makespan: a heavy
   item claimed last would otherwise run alone after every other worker
   has drained.  Work stealing covers the residual skew: a worker whose
   seeded share finishes early claims the still-unclaimed tail of the
   others' queues instead of idling. *)
let parallel_group_map ?jobs ?weight f xs =
  match weight with
  | None -> parallel_map ?jobs f xs
  | Some w ->
      let n = Array.length xs in
      let order = Array.init n Fun.id in
      let wt = Array.map w xs in
      Array.sort
        (fun a b ->
          match compare wt.(b) wt.(a) with 0 -> compare a b | c -> c)
        order;
      let jobs = resolve_jobs jobs n in
      if jobs <= 1 then begin
        (* Same dispatch order as the pool (heaviest first), results
           scattered back to input order. *)
        let permuted = Array.map (fun i -> xs.(i)) order in
        let res = seq_map f permuted in
        let out = Array.make n None in
        Array.iteri (fun k i -> out.(i) <- Some res.(k)) order;
        Array.map (function Some y -> y | None -> assert false) out
      end
      else
        run_pool ~jobs ~tasks:(Array.map (fun i -> (i, i + 1)) order) f xs

let now () = Unix.gettimeofday ()
