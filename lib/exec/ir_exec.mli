(** Parallel execution over OCaml 5 domains.

    The evaluation layer of this reproduction recomputes the optimal rank
    at every sweep point; the points are independent, so the sweeps are
    embarrassingly parallel.  This module provides the small domain pool
    they all share: a work-stealing [parallel_map] over arrays whose
    results are written back by input index, so the output order — and
    therefore every table, CSV and JSON artifact built from it — is {e
    byte-identical} to a sequential run regardless of how the items were
    scheduled across domains.

    {2 Scheduling}

    Each run seeds one task queue per worker: tasks (contiguous input
    ranges — single elements for {!parallel_map} and {!parallel_group_map},
    chunks for {!parallel_map_chunked}) are dealt round-robin across the
    queues in dispatch-priority order (input order, or heaviest-first
    when {!parallel_group_map} is given weights), so each queue descends
    in priority front to back.  Every task carries an atomic claim flag;
    owners drain their own queue front to back, and a worker that runs
    out {e steals}, scanning the other queues from the tail — the
    cheapest still-unclaimed work, farthest from where its owner is
    working (Chase–Lev style).  A skewed workload therefore no longer
    serializes on whichever worker was seeded the hot tasks: the idle
    workers drain the rest of its queue around it.  Steals are tallied
    per worker in {!pool_stats} and on the [exec/sched/steals] counter.

    Because results land by input index and every task runs exactly once
    (the claim CAS), the schedule — including how many steals happened —
    affects wall time only, never result bytes or the deterministic
    counters.  The [exec/sched/] counters are the deliberate exception:
    they count scheduling events themselves; jobs=1 vs jobs=N identity
    checks strip them with [Ir_obs.filter_out ~prefix:"exec/sched/"].

    {2 Job-count resolution}

    The worker count used when [?jobs] is omitted is resolved, in order,
    from:

    + the process-wide override installed with {!set_default_jobs}
      (the CLI's [-j] flag);
    + the [IA_RANK_JOBS] environment variable;
    + [Domain.recommended_domain_count () - 1], the hardware parallelism
      minus one domain's worth of headroom for the caller's process.

    The result is clamped to at least 1.  With [jobs = 1] every function
    degrades to its sequential [Array.map]/[List.map] equivalent on the
    calling domain — no domain is spawned, so existing single-threaded
    behavior (allocation pattern included) is exactly reproducible.

    Whatever the request, the {e effective} worker count is additionally
    clamped to {!hardware_jobs}: running more CPU-bound domains than
    cores is a pure loss under OCaml 5's stop-the-world minor GC (each
    collection waits for every runnable-but-descheduled domain to reach
    a safepoint — measured 2x slower than sequential on the Table-4
    bench leg at jobs=4 on one core).  The clamp is {e not} silent: the
    first time it bites, a one-line warning goes to stderr, and every
    occurrence increments the [exec/sched/jobs_clamped] counter — so
    [-j 8] on a 4-core box is visible, not a quiet no-op.  Tests that
    deliberately want contended multi-domain scheduling can lift the
    clamp with {!set_allow_oversubscribe}.  Result bytes never depend on
    the worker count either way.

    {2 Determinism and exceptions}

    [f] runs at most once per element.  Results land at the index of the
    element that produced them.  If one or more applications of [f] raise,
    the remaining items are still drained (the pool never abandons a
    domain), and the exception raised by the {e lowest-indexed} failing
    element is re-raised in the caller with its original backtrace — again
    independent of scheduling.

    Sharing read-only data (e.g. an {!Ir_assign.Problem.t} after [build])
    across the workers is safe; mutating shared state from [f] is the
    caller's responsibility.

    {2 GC tuning}

    OCaml 5 minor collections are stop-the-world across all running
    domains, so the default 256k-word minor heap makes an allocating
    parallel workload pay a synchronization barrier every few hundred
    kilobytes of allocation.  Spawning a pool therefore raises the
    per-domain minor heap to at least {!pool_minor_heap_words} for the
    duration of the run, and {e restores} the previous size once the
    outermost pool scope drains — a serve process that briefly fans out
    no longer keeps the large minor heap forever.  An existing larger
    setting — [OCAMLRUNPARAM=s=...] or the caller's own [Gc.set] — is
    respected (never shrunk), and the restore is skipped if someone else
    changed the size in between.  Drivers that run several pools
    back-to-back can hold the raised heap across all of them with
    {!with_pool_heap}.  [jobs = 1] runs never touch GC parameters. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1], clamped to at least 1 —
    the hardware default before overrides. *)

val hardware_jobs : unit -> int
(** [Domain.recommended_domain_count ()], clamped to at least 1 — the
    ceiling on effective workers unless oversubscription is allowed. *)

val set_allow_oversubscribe : bool -> unit
(** [set_allow_oversubscribe true] lets an explicit [?jobs] (or
    override/env) request spawn more workers than {!hardware_jobs}.
    Off by default; meant for determinism tests that must exercise
    real cross-domain interleaving even on small machines. *)

val set_default_jobs : int option -> unit
(** Install ([Some n], clamped to at least 1) or clear ([None]) the
    process-wide job-count override.  Used by the CLI's [-j]. *)

val with_default_jobs : int option -> (unit -> 'a) -> 'a
(** Runs the thunk with the override installed and restores the
    {e previous} override (not merely [None]) on the way out, exceptions
    included — a plain [set_default_jobs] pair leaks the override into
    everything after the first exception.  The bench's serving leg uses
    this to replay a trace at jobs=1 and jobs=N without the last replay's
    setting bleeding into later sections. *)

val default_jobs : unit -> int
(** The job count used when [?jobs] is omitted (see resolution order
    above). *)

type pool_stats = {
  jobs : int;  (** workers used, caller domain included *)
  wall_seconds : float;  (** elapsed time of the whole run *)
  units : int array;
      (** elements processed per worker (index 0 = caller domain).
          Individual entries are scheduling-dependent; the sum is always
          the input length. *)
  busy_seconds : float array;  (** per-worker busy wall time *)
  steals : int array;
      (** tasks each worker claimed out of {e another} worker's queue.
          Scheduling-dependent, like the per-worker unit split; zero
          everywhere on a perfectly balanced run and on [jobs = 1]. *)
}
(** Accounting for one [parallel_map]/[parallel_map_chunked] run.  A
    sequential ([jobs = 1]) run produces the degenerate single-worker
    record, so callers can report uniformly. *)

val last_pool_stats : unit -> pool_stats option
(** Stats of the most recent map run in this process, if any.  Written
    after the join, so reading it right after a map call is race-free;
    concurrent maps from multiple domains overwrite each other (the
    sweep drivers run one map at a time). *)

val effective_parallelism : pool_stats -> float
(** Sum of per-worker busy time over wall time — ~[jobs] when workers
    stay saturated, lower when work is skewed or spawn overhead
    dominates.  [1.0] when wall time is too small to measure. *)

val pool_minor_heap_words : int
(** The minor-heap size (4M words) a running pool raises every domain
    to; see the GC-tuning notes above.  Exposed for the tests pinning
    the raise-and-restore behaviour. *)

val with_pool_heap : (unit -> 'a) -> 'a
(** Holds the pool's raised minor heap across the whole thunk: pools
    started inside resize on entry of the outermost scope only, and the
    pre-existing size is restored when the thunk exits (exceptions
    included).  Use around a burst of back-to-back pool runs — the
    bench's scaling sweep — to avoid paying a [Gc.set]-forced collection
    per run. *)

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map f xs] is [Array.map f xs] evaluated by up to [jobs]
    domains (the caller included), one element per stealable task.
    Result order is the input order. *)

val parallel_map_chunked :
  ?jobs:int -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** Like {!parallel_map} but tasks are contiguous chunks of [chunk]
    elements (default: a chunk size targeting ~4 chunks per worker) —
    lower scheduling overhead when [f] is cheap relative to a claim CAS.
    Same ordering and exception guarantees.
    @raise Invalid_argument if [chunk <= 0]. *)

val parallel_list_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!parallel_map} for lists; preserves list order. *)

val parallel_group_map :
  ?jobs:int -> ?weight:('a -> int) -> ('a -> 'b) -> 'a array -> 'b array
(** Like {!parallel_map}, but when [weight] is given the items are
    seeded into the worker queues in decreasing weight order (ties broken
    by input index — the seed is deterministic) while results still come
    back in {e input} order.  Use it when task costs are skewed and known
    up front (a fused multi-sweep run, a cross-node matrix whose largest
    design dominates): heaviest-first seeding keeps the long poles from
    starting last, and work stealing lets the other workers drain around
    whoever is pinned on one.  Without [weight] this is exactly
    {!parallel_map}.  Determinism and accounting are as in
    {!parallel_map}; when several items raise, the re-raised exception
    is the {e earliest-dispatched} (heaviest) failing item's — still
    deterministic, since the dispatch order is. *)

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]).  The sweep layer's per-point
    timings use wall time, not [Sys.time]: under parallel execution the
    process CPU time aggregates every domain and stops measuring the
    latency a user actually observes. *)
