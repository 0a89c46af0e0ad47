(** Grid-batched DP engine: evaluate a whole parameter sweep in one
    level-synchronous wavefront pass, with incremental re-evaluation.

    A Table-4-style grid perturbs one knob per point — dielectric K,
    Miller factor M, clock C, repeater fraction R — over a fixed
    technology/WLD family.  Points sharing (materials, clock) share their
    entire phase-A DP (the budget enters no table), so the grid groups
    points into planes, builds all planes boundary-pair-by-boundary-pair
    in one batched wavefront (the {!Ir_exec} pool parallelizes across
    planes {e inside} each level, with a barrier per level), and answers
    every point from resident tables with one family-wide
    {!Ir_assign.Suffix_fit} memo and boundary hints threaded grid-wide.

    This is the only DP driver.  One query is a one-cell grid
    ({!compute}, behind {!Rank.compute}); a heterogeneous batch is a
    grid whose every cell is its own plane ({!eval_batch}).  A power
    budget on the base problem is an area cap
    ({!Ir_assign.Problem.budget}), so it needs no path of its own.  The
    wavefront drives
    {!Rank_dp.builder_step} (the same expansion code as
    {!Rank_dp.build_tables}), phase B runs {!Rank_dp.search_tables} over
    {!Rank_dp.rebudget}ed tables, and the Definition-3 no-fit screen
    runs inside {!Rank_dp.builder} — so a no-fit cell expands no level
    in any of them.  A shared plane answers each point exactly as the
    point's own one-cell grid would (the displacement argument; a
    truncated plane falls back to per-fraction builds), which the
    differential tests in [test_core]/[test_sweep] assert.

    Counters: [grid/cells_evaluated], [grid/cells_shared] (points
    answered from a plane built for another point),
    [grid/wavefront_levels] (barrier rounds), [grid/perturb_recomputed]
    (cells re-evaluated by {!perturb}) — all structural, jobs-invariant
    quantities. *)

type t
(** A resident evaluated grid: per-point outcomes plus every plane's
    phase-A tables, kept for {!perturb} and the serve tier's
    neighboring-query path.  Not domain-safe — one owner at a time. *)

type point = {
  materials : Ir_ia.Materials.t option;  (** [None] = the base's *)
  clock : float option;  (** Hz; [None] = the base's *)
  fraction : float option;  (** repeater fraction; [None] = the base's *)
}
(** One grid cell, as overrides of the base problem.  Overrides equal to
    the base value are canonicalized away, so e.g. a K sweep's base-k
    point lands in the same plane as the R column. *)

val point :
  ?materials:Ir_ia.Materials.t ->
  ?clock:float ->
  ?fraction:float ->
  unit ->
  point

val evaluate :
  ?max_pareto:int ->
  ?widen_on_overflow:bool ->
  ?widen_cap:int ->
  ?jobs:int ->
  Ir_assign.Problem.t ->
  point array ->
  t
(** [evaluate base points] runs the batched wavefront and answers every
    point.  [max_pareto] (default 8), [widen_on_overflow] (default true)
    and [widen_cap] set the widening policy of {!Rank_dp.widen_tables};
    [jobs] the pool size.  Outcomes are independent of [jobs] (asserted
    by the bench counter-identity table).  A finite power budget on
    [base] caps every point's repeater budget at its area equivalent. *)

val results : t -> Outcome.t array
(** Per-point outcomes, in [points] order (a copy). *)

val outcome : t -> int -> Outcome.t
(** One cell's outcome (index into the original [points], or an index
    returned by {!perturb}). *)

val cells : t -> int
(** Number of grid cells currently held (grows with {!perturb}). *)

val planes : t -> int
(** Number of distinct (materials, clock) planes built. *)

val perturb : t -> point -> int array
(** [perturb g pt] appends one cell for [pt] and recomputes {e only} the
    wavefront slice the delta invalidates, returning the indices of the
    recomputed cells (always including the new cell, [cells g - 1] after
    the call):
    - plane resident, fraction within its build: [[| new |]], and the
      plane is not rebuilt.  A truncation-free plane answers with one
      phase-B search; a truncated one answers the new cell alone, from
      its own build at the build's fraction and cold below it;
    - fraction above the resident build: that plane's slice is rebuilt
      at the new fraction and all {e its} cells re-answered (values are
      preserved by the displacement argument; they are still reported
      as recomputed);
    - new (materials, clock) value: one new plane built alone,
      [[| new |]].
    Every other plane's cells are untouched — strictly fewer cells than
    re-running {!evaluate} whenever the grid holds more than one plane.
    Mutates [g] in place. *)

(** {2 Resident grids for the serve tier}

    The warm-table pool keeps one resident grid per query {e family}
    (everything but materials, clock and repeater fraction fixed) and
    grows it one plane at a time: {!adopt} installs snapshot-restored
    tables, {!query} answers a point from resident planes without
    growing the grid, and a full {!perturb} builds the missing plane.
    One family-wide suffix-fit memo and one boundary hint persist inside
    the grid across calls. *)

val resident :
  ?max_pareto:int ->
  ?widen_on_overflow:bool ->
  ?widen_cap:int ->
  ?jobs:int ->
  Ir_assign.Problem.t ->
  t
(** [resident base] is an empty grid (no cells, no planes) around
    [base].  The serve tier passes the family's problem rebound to the
    full repeater budget so every later fraction rebinds downward. *)

val plane_tables : t -> point -> Rank_dp.tables option
(** The resident phase-A tables of [point]'s (materials, clock) plane,
    if that plane has been built or adopted — the serve tier's snapshot
    source.  The point's fraction is ignored. *)

val adopt : t -> point -> Rank_dp.tables -> unit
(** [adopt g pt tables] installs externally built (snapshot-restored)
    tables as the resident plane for [pt]'s (materials, clock) key,
    replacing any current tables.  The tables must be truncation-free
    and built at [g]'s base repeater fraction ({!resident}'s contract —
    the serve tier only ever snapshots such planes).
    @raise Invalid_argument if the tables are truncated. *)

val query :
  ?activity:float ->
  ?power_budget:float ->
  t ->
  point ->
  (Outcome.t * Rank_dp.witness option) option
(** [query g pt] answers [pt] from resident planes only: [Some (outcome,
    witness)] — byte-identical to the point's own one-cell {!compute} —
    when the
    plane is resident, truncation-free and was built at a repeater
    budget [>=] the point's; [None] otherwise (caller decides whether to
    {!perturb} or fall through cold).  [?power_budget] (watts, at
    [?activity], both defaulting to the base's) caps the point's budget
    through {!Rank_dp.rebudget}, so a powered point is answered from the
    same plane.  Unlike {!perturb} it never builds and never grows the
    cell arrays, so a long-running server can answer arbitrarily many
    queries from a bounded grid. *)

val compute :
  ?max_pareto:int ->
  ?widen_on_overflow:bool ->
  ?widen_cap:int ->
  Ir_assign.Problem.t ->
  Outcome.t * Rank_dp.witness option
(** [compute problem] is the one-cell {!evaluate} at jobs 1: the
    optimal rank of [problem] at its own budgets, and the witness behind
    it (absent only when unassignable).  If a build truncates a
    non-dominated state the widen ladder retries at doubled width; what
    it cannot make exact comes back as an honest lower bound
    ([exact = false]). *)

val eval_batch :
  ?max_pareto:int ->
  ?widen_on_overflow:bool ->
  ?widen_cap:int ->
  ?jobs:int ->
  ?hint:int ->
  ?probe_fan:int ->
  Ir_assign.Problem.t array ->
  Outcome.t array
(** Heterogeneous batch (cross-node cells, optimizer candidates): each
    problem is its own plane — no table sharing — but phase A still runs
    as one batched wavefront and phase B threads boundary hints down the
    batch through {!Rank_dp.search_with_tables}.  Outcome [i] equals
    [fst (compute problems.(i))] ([hint]/[probe_fan] are
    probe-schedule-only). *)
