(** Grid-batched DP engine: evaluate a whole parameter sweep in one
    level-synchronous wavefront pass, and keep its planes resident.

    A Table-4-style grid perturbs one knob per point — dielectric K,
    Miller factor M, clock C, repeater fraction R — over a fixed
    technology/WLD family.  Points sharing (materials, clock) share their
    entire phase-A DP (a truncation-free build at a wider budget
    answers every narrower one), so the grid groups points into planes,
    builds all planes boundary-pair-by-boundary-pair in one batched
    wavefront (the {!Ir_exec} pool parallelizes across planes {e inside}
    each level, with a barrier per level), and answers every point from
    resident tables with boundary hints threaded grid-wide.

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
    in any of them.  {!evaluate} and {!query} answer a point from a plane
    by one rule (stated at {!query}); a shared plane answers each point
    exactly as the point's own one-cell grid would, which the
    differential tests in [test_core]/[test_sweep] assert.

    Counters: [grid/cells_evaluated] (points answered),
    [grid/cells_shared] (points answered from a plane built for another
    point), [grid/wavefront_levels] (barrier rounds) — all structural,
    jobs-invariant quantities. *)

type t
(** A set of resident planes: each (materials, clock) plane's phase-A
    tables, with the boundary hint that warm-starts the searches
    answering points from them.  A grid only gains planes.  Not
    domain-safe — one owner at a time. *)

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
  ?jobs:int ->
  Ir_assign.Problem.t ->
  point array ->
  (Outcome.t * Rank_dp.witness option) array
(** [evaluate base points] runs the batched wavefront, each plane built
    at its widest point's fraction, and answers every point, in [points]
    order: from its plane by {!query}'s rule, else cold (its own build
    and widen ladder).  [max_pareto] (default 8) and [widen_on_overflow]
    (default true) set the widening policy of {!Rank_dp.widen_tables};
    [jobs] the pool size.  Outcomes are independent of [jobs] (asserted
    by the bench counter-identity table).  A finite power budget on [base] caps every point's repeater
    budget at its area equivalent. *)

(** {2 Resident grids for the serve tier}

    The warm-table pool keeps one resident grid per query {e family}
    (everything but materials, clock and repeater fraction fixed) and
    grows it one plane at a time: {!build_plane} builds a missing plane,
    {!adopt} installs snapshot-restored tables, and {!query} answers a
    point from resident planes without building anything.  The only
    state a grid keeps across calls beside its planes is one boundary
    hint, so a warm answer is one {!Rank_dp.search_tables} from the last
    boundary served. *)

val resident :
  ?max_pareto:int ->
  ?widen_on_overflow:bool ->
  ?jobs:int ->
  Ir_assign.Problem.t ->
  t
(** [resident base] is an empty grid (no planes) around [base].  Its
    planes are built at [base]'s repeater fraction; the serve tier
    passes the family's problem rebound to the full repeater budget so
    every later fraction rebinds downward. *)

val planes : t -> int
(** Number of resident (materials, clock) planes. *)

val plane_tables : t -> point -> Rank_dp.tables option
(** The resident phase-A tables of [point]'s (materials, clock) plane,
    if that plane has been built or adopted — the serve tier's snapshot
    source.  The point's fraction is ignored. *)

val build_plane : t -> point -> Rank_dp.tables
(** [build_plane g pt] is {!plane_tables} of [pt], first building the
    plane (one wavefront at [g]'s base fraction, widen ladder included)
    if it is missing.  It answers no point.  The point's fraction is
    ignored. *)

val adopt : t -> point -> Rank_dp.tables -> unit
(** [adopt g pt tables] installs externally built (snapshot-restored)
    tables as the resident plane for [pt]'s (materials, clock) key.  The
    tables must be truncation-free and built at [g]'s base repeater
    fraction ({!resident}'s contract — the serve tier only ever
    snapshots such planes).
    @raise Invalid_argument if the tables are truncated or the plane is
    already resident. *)

val query :
  ?activity:float ->
  ?power_budget:float ->
  t ->
  point ->
  (Outcome.t * Rank_dp.witness option) option
(** [query g pt] answers [pt] from its resident plane, if the plane can
    answer it exactly; the answer is byte-identical to the point's own
    one-cell {!compute}.  [?power_budget] (watts, at [?activity], both
    defaulting to the base's) caps the point's budget like a fraction
    does.  The rule, shared with {!evaluate}:
    - a truncation-free plane answers any budget up to the one it was
      built at, by one phase-B search over its {!Rank_dp.rebudget}ed
      tables;
    - a truncated plane answers only the budget it was built at, by a
      search of its own tables;
    - otherwise — no resident plane, a wider budget, or a narrower one
      on a truncated plane — [None], and the caller computes the point
      cold.
    It never builds, so a long-running server answers arbitrarily many
    queries from a bounded grid. *)

val compute :
  ?max_pareto:int ->
  ?widen_on_overflow:bool ->
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
