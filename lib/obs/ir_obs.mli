(** Domain-safe counters and span timers with a process-wide registry.

    The sweep engine fans rank computations out over OCaml 5 domains
    ({!Ir_exec}); this module is how the hot paths underneath it
    ({!Ir_core.Rank_dp}, {!Ir_assign.Greedy_fill}, the sweep drivers)
    report what they did.  Three kinds of instruments:

    - {e counters} — monotone integer event counts ([Atomic] adds, so
      concurrent increments from worker domains never lose updates).
      With one carve-out, every counter in this codebase counts a {e
      deterministic} quantity: its total after a run depends only on the
      work performed, not on how that work was scheduled across domains.
      Running the same sweep at [jobs = 1] and [jobs = N] must therefore
      produce {e identical} counter snapshots — an invariant the test
      suite and the bench harness both assert, and a cheap cross-domain
      determinism check for every future caching or sharding change.
      The carve-out is the [exec/sched/] namespace: counters there
      (steal counts, hardware-clamp events) describe the {e schedule
      itself} and legitimately differ between worker counts — identity
      checks strip them with {!filter_out} before comparing.
    - {e gauges} — high-water marks ([set_max]); deterministic under the
      same condition as counters, since a maximum is order-independent.
    - {e spans} — cumulative wall-clock timers with call counts.  Spans
      may nest freely (a [rank_dp/search] span inside a
      [sweep/point_search] span records into both), and workers time
      concurrently, so span seconds are {e cumulative across domains}
      and may exceed elapsed wall time; ratios of span totals (busy /
      wall = effective parallelism) are the meaningful reading.  Span
      values are scheduling-dependent — only counters are deterministic.

    Instruments are registered by name on first use and cached by the
    instrumented module (lookup is mutex-guarded; the increments
    themselves are lock-free).  Names are [subsystem/event], e.g.
    [rank_dp/pareto_truncations].  {!reset} zeroes every registered
    instrument without unregistering it, so cached handles stay valid.

    Collection is always on — an atomic add costs nanoseconds, far below
    the table builds it counts — and the CLI [--stats] flag (or
    [IA_RANK_STATS=1]) merely controls whether the report is printed. *)

type counter
(** A named monotone event counter. *)

val counter : string -> counter
(** [counter name] returns the registered counter for [name], creating
    it (at zero) on first use.  The same name always yields the same
    underlying counter. *)

val incr : counter -> unit
(** Add 1 (atomic). *)

val add : counter -> int -> unit
(** Add [n] (atomic).  Negative [n] is allowed but unused here; counters
    are treated as monotone. *)

val value : counter -> int
(** Current value. *)

type gauge
(** A named high-water mark: holds the maximum value ever offered via
    {!set_max}.  Unlike counters, gauges do not accumulate — but like
    them they are deterministic across schedulings whenever the offered
    values are (a maximum is order-independent), so the jobs=1 vs jobs=N
    identity checks cover gauges too.  Used for kernel capacity
    watermarks, e.g. [rank_dp/front_arena_states]. *)

val gauge : string -> gauge
(** [gauge name] returns the registered gauge for [name], creating it
    (at zero) on first use. *)

val set_max : gauge -> int -> unit
(** [set_max g v] raises [g] to [v] if [v] is larger (atomic CAS loop;
    the max of concurrent calls wins regardless of interleaving). *)

val gauge_value : gauge -> int
(** Current high-water mark. *)

type span
(** A named cumulative wall-clock timer with a call count. *)

val span : string -> span
(** [span name] returns the registered span for [name], creating it on
    first use. *)

val record : span -> float -> unit
(** [record s dt] adds [dt] seconds and one call (atomic). *)

val time : span -> (unit -> 'a) -> 'a
(** [time s f] runs [f ()] and records its wall-clock duration into [s]
    whether it returns or raises.  Nested [time] calls (on the same or
    different spans) are safe — each records its own full duration. *)

type span_stat = { calls : int; seconds : float }

type snapshot = {
  counters : (string * int) list;  (** name-sorted *)
  gauges : (string * int) list;  (** name-sorted *)
  spans : (string * span_stat) list;  (** name-sorted *)
}
(** A consistent-enough point-in-time copy of the registry: each
    instrument is read atomically; the set is not fenced against
    concurrent increments (snapshots are taken between sweep legs). *)

val snapshot : unit -> snapshot

val reset : unit -> unit
(** Zero every registered counter and span (registrations survive, so
    handles cached by instrumented modules remain valid). *)

val filter : prefix:string -> snapshot -> snapshot
(** The sub-snapshot of instruments whose names start with [prefix]
    (e.g. [~prefix:"serve"] isolates the serving layer's counters for
    the serving replay's determinism comparison). *)

val filter_out : prefix:string -> snapshot -> snapshot
(** The complement of {!filter}: drops instruments whose names start
    with [prefix].  The jobs=1 vs jobs=N identity checks use
    [~prefix:"exec/sched/"] to strip the scheduling-dependent scheduler
    counters (steals, clamp events) before comparing — everything else
    must still match exactly. *)

val find_counter : snapshot -> string -> int option
val find_gauge : snapshot -> string -> int option
val find_span : snapshot -> string -> span_stat option

val pp_report : Format.formatter -> snapshot -> unit
(** Aligned tables: counters (name, value), gauges (name, max), then
    spans (name, calls, seconds).  Empty sections are omitted; an
    entirely empty snapshot prints a single placeholder line. *)
