(** Artifact export: write experiment results to a directory.

    The bench harness prints its tables; this module also persists them —
    one CSV per Table 4 column plus a cross-node CSV and a plain-text
    manifest — so downstream plotting or regression-diffing does not have
    to re-run hour-scale sweeps.  Output directories are created
    recursively as needed; existing files are overwritten. *)

val ensure_dir : string -> (unit, string) result
(** Creates [dir] and any missing parents ([mkdir -p]); tolerates a
    concurrent creator.  [Error] names the path when a non-directory is
    in the way. *)

val sweep_csv_path : dir:string -> Table4.sweep -> string
(** The file a sweep will be written to: [<dir>/table4_<name>.csv].  The
    sweep name is lowercased, so names differing only in case collide —
    {!write_sweeps} rejects such batches. *)

val write_sweeps : dir:string -> Table4.sweep list -> (string list, string) result
(** Writes each sweep's paper-vs-measured CSV; returns the written paths
    (or the first filesystem error).  Fails up front, before writing
    anything, if two sweeps in the batch would export to the same file
    (see {!sweep_csv_path}). *)

val write_cross : dir:string -> Cross_node.cell list -> (string, string) result
(** Writes [<dir>/cross_node.csv]. *)

val power_pareto_csv_path : dir:string -> string
(** The file {!write_power_pareto} writes: [<dir>/power_pareto.csv]. *)

val write_power_pareto :
  dir:string -> Power_pareto.result -> (string, string) result
(** Writes the rank-vs-power frontier as one CSV row per budget point
    (fraction, budget and witness watts, rank, normalized rank,
    boundary, flags).  The committed golden copy under [results/] is
    what CI diffs and uploads. *)

val write_manifest :
  dir:string -> entries:(string * string) list -> (string, string) result
(** Writes [<dir>/MANIFEST.txt] with one [key: value] line per entry
    (e.g. key experiment ids, value one-line summaries). *)

val bench_json_path : dir:string -> string
(** The file {!write_bench_json} writes: [<dir>/BENCH_sweeps.json]. *)

type parallel_report = {
  requested_jobs : int;  (** the [?jobs] the parallel leg asked for *)
  effective_jobs : int;  (** workers after the {!Ir_exec} hardware clamp *)
  jobs1_seconds : float;
  jobsn_seconds : float option;
      (** [None] when the parallel leg was skipped because the hardware
          has a single core — rerunning identical work at
          [effective_jobs = 1] can only measure its own overhead *)
}
(** Scaling summary of the two table4 legs, exported under ["parallel"]
    with a derived ["speedup"] and a machine-readable
    ["parallel_regression"] flag: [true] when the parallel leg was slower
    than the sequential one (the condition the bench also warns about on
    stdout), [false] when it was not, and the string
    ["skipped_single_core"] when [jobsn_seconds = None] — a single-core
    box previously reported a {e false} [true] here. *)

type scaling_report = {
  max_jobs : int;  (** {!Ir_exec.hardware_jobs} at bench time *)
  points : (int * float) list;
      (** [(jobs, seconds)] per measured worker count, ascending,
          starting at the jobs=1 baseline *)
}
(** The [--scaling] bench mode's jobs=1..ncores curve, exported under
    ["scaling"] (schema 6).  Export derives the rest from the raw
    timings: per-point ["speedup"] (jobs1 seconds over the point's) and
    ["parallel_regression"] (point slower than jobs=1), a ["knee_jobs"]
    marginal-gain knee (the last point whose speedup improves on its
    predecessor's by at least 5%), and an overall ["status"] — ["ok"],
    ["regression"] (some jobs>1 point is slower than jobs=1), or
    ["skipped_single_core"] (no jobs>1 point exists to measure). *)

type serving_report = {
  trace_requests : int;  (** requests replayed against the query server *)
  distinct_queries : int;  (** distinct fingerprints in the trace *)
  hit_rate : float;  (** cache hits / requests over the whole trace *)
  p50_ms : float;  (** request latency percentiles, milliseconds *)
  p95_ms : float;
  p99_ms : float;
  computes : int;  (** actual rank computations the trace triggered *)
  table_builds : int;  (** warm-table families built for it *)
  counters_match : bool;
      (** the [serve]/[serve_cache] counter identity between the jobs=1
          and jobs=N replays — the serving layer's determinism check *)
}
(** The bench's serving leg, exported under ["serving"] (since schema 5):
    a query trace replayed against an in-process server, summarized by
    hit rate, latency percentiles and the counter-identity verdict. *)

type grid_report = {
  grid_points : int;  (** cells the sweep grid evaluated *)
  grid_planes : int;  (** distinct (materials, clock) planes it built *)
  per_point_seconds : float;
      (** wall time of the unshared run: {!Ir_core.Rank_grid.eval_batch}
          over every point's own problem, each cell its own plane *)
  grid_seconds : float;
      (** same workload, same jobs, shared planes ({!Table4.all}) *)
  grid_identical : bool;
      (** rank / exact-flag identity between the shared and unshared
          runs, and between the grid leg's jobs=1 and jobs=N runs *)
  grid_counters_match : bool;
      (** [grid/*] (and all other) counter identity between the grid
          leg's jobs=1 and jobs=N runs — the counters are structural *)
  perturb_recomputed : int;
      (** cells the perturb micro-leg re-evaluated for a one-parameter
          delta *)
  perturb_grid_cells : int;
      (** cells a full re-evaluation of that micro grid would touch —
          perturb must recompute strictly fewer *)
  perturb_seconds : float;  (** wall time of the incremental path *)
  full_eval_seconds : float;  (** wall time of the full micro-grid build *)
}
(** The grid leg, exported under ["grid"] (schema 8): the same Table-4
    sweep run without plane sharing and through the shared-plane
    {!Ir_core.Rank_grid} wavefront at the same worker count, plus a
    perturb micro-leg on a small grid.  Export derives a ["speedup"]
    (unshared seconds over shared seconds — reported, never gated) and
    a ["status"] the CI gate keys on: ["ok"], ["mismatch"] (the shared
    and unshared runs, or the grid's own jobs=1/jobs=N runs, disagree on a
    rank or exact flag), ["counters_mismatch"] (the structural [grid/*]
    counters varied with the worker count), or
    ["perturb_not_incremental"] ({!Ir_core.Rank_grid.perturb} recomputed
    as many cells as a full rebuild). *)

val grid_status : grid_report -> string
(** The derived ["status"] string described above — exposed so the bench
    harness can print and gate on the same verdict the JSON exports. *)

type power_report = {
  power_points : int;  (** budget points in the measured frontier *)
  unconstrained_power : float;
      (** watts the area-only optimum's witness burns — the sweep's
          self-calibration anchor *)
  power_identity_ok : bool;
      (** infinite-budget runs over the full Table-4 corpus were
          byte-identical — ranks, exact flags and every counter — to
          power-free runs (the soundness anchor) *)
  power_counters_match : bool;
      (** counter identity between the frontier's jobs=1 and jobs=N
          evaluations *)
  power_engines_agree : bool;
      (** every frontier point, answered from one resident plane by
          budget rebinding ({!Ir_core.Rank_grid.query}), equals an
          independent one-cell compute at that power budget: rank,
          exact flag and witness watts *)
  power_monotone : bool;  (** {!Power_pareto.monotone} on the frontier *)
  power_seconds : float;  (** wall time of the frontier sweep *)
}
(** The power-budget leg, exported under ["power"] (schema 10): the
    {!Power_pareto} frontier on the Table 2 baseline plus the
    power budget's four contracts.  Export derives a ["status"] the CI gate
    keys on: ["ok"], ["identity_broken"] (a power-free and an
    infinite-budget run diverged somewhere on the Table-4 corpus),
    ["counters_mismatch"] (a counter varied with the worker count),
    ["engine_mismatch"] (shared-plane vs independent-compute
    disagreement) or
    ["frontier_not_monotone"].  The frontier's shape is reported in
    [results/power_pareto.csv], never gated. *)

val power_status : power_report -> string
(** The derived ["status"] string described above — exposed so the bench
    harness can print and gate on the same verdict the JSON exports. *)

type serving_sharded_report = {
  shards : int;  (** worker processes in the fleet *)
  clients : int;  (** concurrent storm client threads *)
  storm_requests : int;  (** total requests the storm issued *)
  distinct_families : int;
      (** distinct warm-table families among the storm's DP queries *)
  sh_distinct_queries : int;  (** distinct fingerprints in the storm *)
  sh_p50_ms : float;  (** storm request latency percentiles, milliseconds *)
  sh_p95_ms : float;
  sh_p99_ms : float;
  shed_rate : float;  (** [Overloaded] answers / storm requests *)
  coalesce_rate : float;  (** fleet-wide [serve/coalesced] / [serve/requests] *)
  table_builds_per_shard : int list;
      (** each shard's [serve/table_builds] after the storm — their sum
          must not exceed [distinct_families] (family-affinity routing) *)
  byte_identical : bool;
      (** post-storm: every distinct query re-asked through the router
          matched a local cold compute byte-for-byte *)
}
(** The sharded load-generator leg, exported under ["serving_sharded"]
    (since schema 7): a zipf-skewed client storm against a forked shard
    fleet behind TCP.  Export derives a ["status"] the CI gate keys on:
    ["ok"], ["mismatch"] (byte-identity broken),
    ["duplicate_family_builds"] (some family's tables were built by more
    than one shard), or ["shed_exceeded"] (more than half the storm was
    shed). *)

val sharded_status : serving_sharded_report -> string
(** The derived ["status"] string described above — exposed so the bench
    harness can print and gate on the same verdict the JSON exports. *)

val write_bench_json :
  dir:string ->
  jobs:int ->
  timings:(string * float) list ->
  ?metrics:Ir_obs.snapshot ->
  ?kernel:(string * float) list ->
  ?parallel:parallel_report ->
  ?scaling:scaling_report ->
  ?grid:grid_report ->
  ?power:power_report ->
  ?serving:serving_report ->
  ?serving_sharded:serving_sharded_report ->
  sweeps:Table4.sweep list ->
  cross:Cross_node.cell list ->
  unit ->
  (string, string) result
(** Writes the machine-readable sweep benchmark
    ([<dir>/BENCH_sweeps.json], schema [ia-rank/bench-sweeps/11]) used to
    track the perf trajectory across PRs: the named wall-clock [timings]
    (e.g. the sequential and parallel table4 legs), an optional [kernel]
    timings object (flat name/seconds pairs from the kernel
    microbenchmarks — front insert cost, a timed phase-A build, the two
    table4 legs), an optional [metrics] object (an {!Ir_obs.snapshot}
    rendered as [{"counters": {name: int}, "gauges": {name: int},
    "spans": {name: {"calls", "seconds"}}}] — since schema 4 the counters
    include the phase-B probe economics: [suffix_fit/hits]/[misses],
    [rank_dp/hinted_searches], [rank_dp/hint_saved_probes],
    [rank_dp/probe_fan_rounds] and [greedy_fill/fast_fails]), an optional
    [parallel] two-leg report (see {!parallel_report}), an optional
    [scaling] jobs curve (see {!scaling_report}), an optional [grid]
    engine report (see {!grid_report}), an optional [power] leg
    (see {!power_report}, since schema 10; schema 11 dropped the
    [pruning] leg), every Table 4 row
    (param, normalized rank, rank wires, exactness, per-point seconds)
    and the cross-node cells.  [jobs] records the worker count the
    parallel leg requested. *)
