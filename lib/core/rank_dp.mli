(** Optimal rank computation — an optimized, exactly equivalent
    reformulation of the paper's dynamic program (Section 4).

    The paper's recurrence (its Eq. 1) ranges a boolean table over
    (wires assigned, pairs used, repeater area, wires meeting delay) in
    O(m n^4 A_R^3).  Two structural facts collapse this:

    - In every entry combined by Eq. (1), the wires that meet delay are
      exactly the {e longest} prefix of the WLD (the recurrence composes
      [M[i'_1, j, r_1, i'_1]] — all assigned wires above the boundary pair
      meet), so an optimal solution is described by: interval splits of the
      bunch sequence across pairs, a boundary bunch index [c], repeaters
      only above the boundary.
    - Given the splits, per-wire repeater counts are forced to their
      minima (Eq. 3 is convex in the count), so the only optimization
      freedom is where the splits fall; repeater area and repeater count
      (which drives via blockage below) are then determined, and dominated
      (area, count) combinations can be pruned per state.

    Phase A tabulates Pareto-minimal (repeater area, repeater count) for
    "bunches [0..i) on pairs [0..j), all meeting", for [j < m] only: the
    boundary pair is one of the [m] pairs, so no witness ever sits on a
    prefix that spans all of them; phase B picks the boundary pair, the
    meeting interval on it, and checks the capacity-only suffix with
    {!Ir_assign.Greedy_fill} (the paper's M'').  A binary search finds
    the largest feasible boundary; feasibility is monotone (shrinking the
    meeting prefix only removes repeaters and blockage).

    Complexity: O(m n^2) table construction plus O(log n) boundary probes,
    versus the paper's O(m n^4 A_R^3) — with no repeater-area
    discretization at all.

    This module is the DP {e kernel}: the level-stepped builder, the
    widen ladder, the boundary search over built tables, budget rebinding
    and the table codec.  It has no driver of its own — {!Rank_grid}
    composes these pieces for every query (one point is a one-cell
    grid), and {!Rank.compute} is the one-call front door. *)

type witness = {
  boundary_pair : int;  (** pair holding the last meeting bunches *)
  prefix_splits : int list;
      (** interval end per pair above the boundary, top-down *)
  meet_lo : int;  (** meeting interval on the boundary pair *)
  meet_hi : int;
  reps_above : int;  (** repeaters in pairs above the boundary *)
  reps_total : int;  (** including the boundary pair's *)
}
(** A certificate of the rank: the phase-A interval splits above the
    boundary pair, the boundary pair's meeting interval, and the repeater
    counts.  {!Assignment.extract} turns it into a full placement. *)

type tables
(** The phase-A DP tables of one problem instance, reusable across
    boundary probes: a flat struct-of-arrays {!Front} store (per-cell
    area/count arrays, dominance by one forward walk per sorted source
    chain, blit insertion, no per-insert allocation) plus a
    parent-pointer arena from which witness splits are reconstructed on
    demand, and per row the bunch indices of its non-empty cells, the
    only cells a boundary probe visits.  The store holds rows
    [j = 0 .. m-1] of [n + 1] cells each — exactly the rows a boundary
    probe reads (bunches [\[i, c)] meet on pair [j] on top of the row-[j]
    prefix in cell [(j, i)]).  They are not mutated
    after the build, so feasibility queries against the same tables may
    run concurrently (e.g. from an {!Ir_exec} domain pool).

    The repeater budget ({!Ir_assign.Problem.budget}, which already
    folds in any power budget) prunes states during construction, so a
    problem derived with {!Ir_assign.Problem.with_clock} (or a {e
    larger} budget) needs its own tables.  A {e smaller} budget does
    not: the budget is re-read from the problem at query time, which is
    what {!rebudget} exploits to answer a whole budget sweep from one
    build. *)

val build_tables : ?max_pareto:int -> Ir_assign.Problem.t -> tables
(** Tabulates phase A (default [max_pareto = 8]) into freshly allocated
    storage: {!builder}, {!builder_step} to completion,
    {!builder_finish}.  Raises [Invalid_argument] if [max_pareto < 1]. *)

(** {2 Incremental level-stepped build}

    The same phase-A tabulation, decomposed into one step per boundary
    pair so a level-synchronous driver ({!Rank_grid}'s wavefront) can
    interleave the levels of many concurrent builds.  {!build_tables} is
    exactly [builder] / [builder_step]-to-completion / [builder_finish],
    so stepped and monolithic builds produce byte-identical fronts,
    counter tallies and witnesses by shared code, not by contract. *)

type builder
(** One in-progress phase-A build: the front store plus the next level to
    expand.  Not domain-safe individually — all steps of one builder must
    be externally ordered — but distinct builders may step concurrently
    on different domains (each touches only its own state). *)

val builder : ?max_pareto:int -> Ir_assign.Problem.t -> builder
(** Allocates the front store and runs the Definition-3 capacity screen
    (one {!Ir_assign.Greedy_fill} packing of the whole WLD, delay
    ignored).  An instance that fits gets the root state and [levels]
    steps to go.  A no-fit instance gets no root state and a build that
    is already done: its tables are empty, so the [c = 0] probe of any
    search answers unassignable (rank 0, exact) and no level is ever
    expanded.  Raises [Invalid_argument] if [max_pareto < 1].

    {b The per-cell screen.}  Definition 3 counts a prefix only if the
    remaining wires still fit, delay ignored, and every level applies
    that test to each cell it fills: cell [(j, i)] is {e screened} when
    {!Ir_assign.Greedy_fill.fast_reject} rejects the context
    [from_bunch = i], [top_pair = j], [wires_above_top =
    wires_above_below = wires_before i], no repeaters — bunches [i..n)
    cannot fit on pairs [j..m) even at the narrowest pitch and the
    blockage floor of the prefix wires alone.  A level gets the verdicts
    of its whole row from {!Ir_assign.Greedy_fill.reject_row}, which
    computes exactly these.  A screened cell gets no state.  The root no-fit test above is the same rule at [(0, 0)],
    made exact by a full packing.

    {e Soundness} (a counting argument; Lemma 1 is not used): every
    completion of a state in cell [(j, i)] — a meeting interval on
    pair [j], a capacity-only suffix, or further DP transitions — puts
    bunches [i..n) on pairs [j..m).  The DP's and the packer's own
    checks keep each pair's routing plus blockage within capacity;
    blockage only grows as wires or repeaters are added above, so it is
    at least the floor; and a wire's area is its length times its
    pair's pitch, so the narrowest pitch bounds the demand from below.
    A screened state therefore never completes, at any budget.

    {e Closure}: with [P_j] the narrowest pitch over pairs [>= j] and
    [L] summed wire length, [P_j L(i..n) <= area_j(i..i2) + P_(j+1)
    L(i2..n)]; a transition from [(j, i)] to [(j+1, i2)] pays
    [area_j(i..i2)] out of pair [j]'s room, and the floor only rises
    with [i2].  So every candidate a screened cell would send lands in
    a screened cell, and every kept cell receives exactly the candidate
    stream, and holds exactly the front, it would without the screen.
    The skip is tested after the transition loop's [Break] tests, so
    the loop ends where it would anyway.  Screened cells skipped are
    counted on [rank_dp/cells_screened], once per source cell whose
    transition loop reaches one.  Ranks and witnesses are those of the
    unscreened build wherever that build was exact; an outcome's
    [exact] flag can only go from [false] to [true].

    {b The jump.}  A level does not visit screened destinations one at
    a time.  Next to the mask of row [j + 1] it computes [next_kept]:
    the first kept cell [>= i], for each [i].  When the transition loop
    of source cell [(j, i)] reaches a screened destination [d] whose
    [Break] tests pass, it runs the tests once more, at the run's end
    [t = next_kept d].  If [t] passes, the loop counts the run and goes
    on at [t].  If [t] fails, or no kept cell is left, the loop ends
    inside the run: a bisection finds the first failing destination,
    and the destinations before it are counted.  The tests are
    monotone in the destination, so this is exact:
    - a meeting interval that holds an infeasible bunch keeps holding
      it as it grows;
    - the repeater-area and routing-area prefix tables are sequential
      sums of finite non-negative terms ({!Ir_assign.Problem} rejects
      infinite lengths), so each table is non-decreasing, and so are
      its differences [prefix.(i2) -. prefix.(i)] in [i2], because
      float [-.] and [+.] are monotone.
    So every destination of a run passes when its end does, and the
    failing destinations of a run are a suffix of it.  The loop stops
    where the walk one destination at a time stops, kept cells get
    the same candidates from the same float operations, and
    [rank_dp/cells_screened] counts what that walk counts.

    {b The range skip.}  Most candidates a level offers are dominated,
    and a whole range of one source cell's destinations can be proven
    so in O(1).  A state [(a, c)] of cell [(j, i)] has the {e normalized
    key} [(a - R(0, i), c - C(0, i))], with [R] and [C] the repeater area
    and count of a meeting interval on pair [j]: in exact arithmetic two
    states of one row offer a common destination candidates that differ
    by the difference of their keys.  Each level keeps one {e champion}
    state per row: after each source cell, a state of that cell whose
    {e reach} (the last destination up to which it offered every kept
    cell, before its [Break] and while its budget and capacity filters
    pass) extends past the champion's replaces it.  A state of a later cell whose count key is no smaller and
    whose area key is larger by more than [16 epsilon_float (a + a' +
    2 R(0, n))] gets a strictly larger candidate area at every
    destination, after rounding, than the champion's; the bound covers
    the rounding of both sums, and the proof is in [rank_dp.ml].  While
    the build has truncated nothing, a state dominating the champion's
    candidate is still in each front it was offered to, so the
    pre-check would drop every such candidate up to
    [min (reach', own reach)].  When every state of a source cell is
    covered, the loop skips that range: one [Break] test and one filter
    test at the range's end decide it, with a bisection only when one
    fails, and the range is counted as the walk counts it.  Each state
    adds its kept destinations in range to [rank_dp/pareto_inserts] and
    [rank_dp/pareto_dominated], from a per-row prefix count of kept
    cells, and the screened ones go onto [rank_dp/cells_screened].  The
    skipped candidates are also counted on [rank_dp/transitions_skipped],
    a subset of the dominated ones.  Once the build truncates, every cell
    is walked.  Fronts, tallies and witnesses are those of the walk.
    The skip relies on the [Break] tests and the per-state filters being
    monotone in the destination; a new filter must be monotone too, or
    disable the skip. *)

val builder_step : builder -> bool
(** Expands one boundary-pair level.  Returns [true] while more levels
    remain, [false] once the build is complete — at once for a no-fit
    instance, which has no level to expand (further calls are no-ops
    returning [false]). *)

val builder_advance_incumbent : builder -> unit
(** A no-op.  It was the per-level barrier hook of the removed pruning
    layer and is kept only so perfbench's traced replay, which calls it
    between levels, still compiles.  Nothing in the library calls it. *)

val builder_finish : builder -> tables
(** Seals the build: adds the per-build tallies to the [rank_dp/*]
    counters (from one domain) and returns the tables.  Raises
    [Invalid_argument] while levels are left to expand, and on a second
    call, which would count the tallies twice. *)

val table_truncations : tables -> int
(** Number of non-dominated states dropped because a per-state Pareto set
    exceeded [max_pareto] during the build — in the kept cells of rows
    [0 .. m-1], the only cells filled (see {!builder}'s per-cell
    screen), so every counted drop is a state some boundary probe could
    have read, and none is a state the screen proves can never
    complete.  [0] means phase A is complete and any search
    over these tables is exact; positive means outcomes derived from
    them carry [exact = false] (a lower bound) and {!widen_tables}
    retries at a wider front. *)

val front : tables -> Front.t
(** The phase-A front store: cell [j * (n + 1) + i] holds the states of
    "bunches [0..i) on pairs [0..j), all meeting", for rows [j < m].
    Read it only; the tables own it. *)

(** {1 Table codec}

    The serve tier's warm-table snapshots.  A blob is the payload's
    16-byte MD5 followed by the payload, every field fixed-width
    little-endian:
{v
n, m, cells, max_pareto, truncations     int64 each
length of each cell, cells in order      int32 each
each live state, in canonical order:
  area (IEEE-754 bits)                   int64
  repeater count                         int64
  split                                  int32
  parent (canonical number, or -1)       int32
v}
    The canonical order takes the cells in order and each cell's states
    area-ascending; a state's parent is written as its number in that
    order.  Only live states are written, so the blob grows with the
    front, not with [cells * max_pareto]. *)

type decode_error =
  | Bad_digest  (** shorter than its digest, or the digest does not match *)
  | Truncated  (** the payload ends inside a field *)
  | Geometry
      (** [n], [m] or the cell count disagree with the problem: this is
          how a front that still held the unread row [m] fails *)
  | Bad_width  (** [max_pareto < 1], or a cell longer than [max_pareto] *)
  | Bad_truncations  (** a negative truncation tally *)
  | Bad_area
      (** an area not finite, negative, or not strictly ascending in its
          cell *)
  | Bad_count
      (** a count negative, not an [int], or not strictly descending in
          its cell *)
  | Bad_split
      (** a root's split is not [-1], or a state's split is not its
          cell's bunch index (the end of the interval its pair holds) *)
  | Bad_parent
      (** a row-0 state outside cell (0, 0) or with a parent, or a later
          state whose parent is not in the row above or starts past it *)
  | Trailing_bytes  (** bytes left after the last state *)

val decode_errors : decode_error list
(** Every {!decode_error}, once each. *)

val decode_error_name : decode_error -> string
(** A stable lower-case name, e.g. ["bad_area"] (counter names use it). *)

val encode_tables : tables -> string
(** The blob of the tables (everything but the problem).  Equal tables
    give equal bytes whatever the build's arena history, and
    [encode_tables] of decoded tables gives back the blob they came
    from. *)

val decode_tables :
  Ir_assign.Problem.t -> string -> (tables, decode_error) result
(** Rebinds a blob from {!encode_tables} to [problem] (the caller
    reconstructs the problem the tables were built from — for the serve
    tier, the family's query at repeater fraction 1.0).  The MD5 is
    checked first; then the structure is validated field by field, and
    the first violation is returned: dimensions against [problem], each
    length within [max_pareto], every cell's areas finite, non-negative
    and strictly ascending and its counts non-negative and strictly
    descending, splits and parents as the build leaves them, and no
    byte after the last state.  Accepted tables satisfy the {!Front}
    invariants, and searches over them are byte-identical to searches
    over the originals.  The restored store is as wide as its longest
    cell, not [max_pareto], and gives each non-empty cell one slice:
    restored tables are searched, and a widen retry rebuilds from the
    problem. *)

val search_tables :
  ?exhaustive:bool ->
  ?hint:int ->
  ?probe_fan:int ->
  tables ->
  Outcome.t * witness option
(** Runs the boundary search on built tables and returns the outcome
    and its witness (absent only when unassignable).  The outcome's
    [exact] flag is [table_truncations t = 0].

    The result bytes are identical whatever the options; they change only
    how many probes run and where:

    - [exhaustive]: a top-down linear scan instead of the bracketing
      search — the monotonicity cross-check the tests run.
    - [hint]: expected boundary (e.g. the neighbouring sweep point's
      [boundary_bunch]).  The search brackets the true boundary by
      galloping from the hint, then bisects the bracket — an accurate
      hint answers in O(log distance) probes instead of O(log n).  {e
      Any} value is sound (out-of-range hints are clamped, stale ones
      just gallop further); savings land on [rank_dp/hint_saved_probes],
      measured against the nominal cold cost.
    - [probe_fan]: when > 1, bisection is replaced by speculative
      multi-section rounds — [fan] boundary probes evaluated concurrently
      on their own domains, each run to completion, shrinking the bracket
      by [fan + 1] per round.  Total probe work grows (it lands on the
      same deterministic counters, independent of scheduling); wall time
      shrinks when the machine is otherwise idle.  Meant for
      starved-pool searches ({!Ir_sweep.Cross_node}). *)

val widen_tables :
  ?widen_on_overflow:bool ->
  ?widen_cap:int ->
  tables ->
  tables
(** The widening ladder, continued from an already-built first rung:
    returns the tables unchanged when truncation-free (or widening is
    off, [widen_on_overflow = false]), else rebuilds at doubled
    [max_pareto] — the first retry unconditionally, further doublings
    only while each one at least halves the truncation count, up to
    [widen_cap] (default 128).  Small overflows therefore converge to an
    exact result, while genuinely exponential fronts (where widening
    cannot win) cost one retry and come back as an honest lower bound.
    Every retry rung is a complete {!build_tables}.  The ladder's state
    travels with the tables, so widening the ladder's own output again is
    a no-op. *)

val search_with_tables :
  ?widen_on_overflow:bool ->
  ?widen_cap:int ->
  ?hint:int ->
  ?probe_fan:int ->
  tables ->
  Outcome.t * witness option
(** {!widen_tables} then {!search_tables}: the per-cell search half of
    {!Rank_grid.eval_batch}. *)

val rebudget :
  ?fraction:float -> ?activity:float -> ?power_budget:float -> tables -> tables
(** The same phase-A state queried at another repeater fraction and/or
    power budget (at [activity], default the problem's own).  Both
    reach the DP only through {!Ir_assign.Problem.budget}, so the result
    is exact — searches byte-identical to a fresh build at those
    budgets — iff that budget does not exceed the one the tables were
    built at {e and} [table_truncations t = 0] (the displacement
    argument: a state within a narrower budget survives the wider build
    or is dominated by one that passes the same query checks).  Callers
    must build per budget otherwise; {!Rank_grid} does. *)

val witness_power : Ir_assign.Problem.t -> witness -> float
(** Repeater power (watts) the witness's assignment burns:
    {!Ir_assign.Problem.kappa} times its repeater area, the area summed
    over its meeting intervals top-down — the DP's own accumulation
    order, so it is the very area the budget check admitted, and
    [witness_power p w <= Ir_assign.Problem.power_budget p] for every
    witness a search over [p] returns.  The capacity-only suffix holds
    no repeaters and contributes nothing. *)
