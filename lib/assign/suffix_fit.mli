(** Memoized, monotonicity-exploiting front-end for
    {!Greedy_fill.fits}.

    [Greedy_fill.fits] is antitone in every scalar load parameter of its
    context: raising [top_pair_used], [wires_above_top],
    [reps_above_top], [wires_above_below] or [reps_above_below] (the
    rest fixed, same [(from_bunch, top_pair)]) only removes capacity or
    adds blockage, so a context pointwise easier than a known-feasible
    one is feasible and one pointwise harder than a known-infeasible one
    is infeasible.  A [t] caches per-[(from_bunch, top_pair)] frontiers
    of {e oracle-answered} contexts and answers dominated queries by
    coordinatewise comparison alone — no rearranged float arithmetic —
    so every answer is byte-identical to calling the oracle directly
    (pinned by the differential property in [test_assign]).  Queries no
    frontier covers fall through to [Greedy_fill.fits] and their answers
    join it.

    Hits and misses are tallied on the [suffix_fit/hits] /
    [suffix_fit/misses] counters (deterministic: the query sequence of a
    fixed workload is).

    The verdict never depends on the repeater budget ([Greedy_fill]
    ignores it), so one memo may serve a whole budget-rebound family —
    that is what makes sharing it across the fractions of a
    [Ir_core.Rank_grid] plane sound, where identical probe contexts repeat per fraction.

    A [t] is single-domain mutable state: do not share one across
    concurrently-running probes (speculative parallel probes each take a
    fresh memo). *)

type t

val create : Problem.t -> t
(** A fresh, empty memo for [problem]'s capacity/architecture/WLD family.
    Valid for the problem itself and any [Problem.with_repeater_fraction]
    rebinding of it.  The memo owns one {!Scratch} arena for its
    lifetime and hands it to {!Greedy_fill.fits} on every miss, so a
    miss that shares the last miss's below-top-pair fields resumes at
    the top pair; the arena is single-user, exactly like the memo. *)

val fits :
  t ->
  from_bunch:int ->
  top_pair:int ->
  top_pair_used:float ->
  wires_above_top:int ->
  reps_above_top:int ->
  wires_above_below:int ->
  reps_above_below:int ->
  bool
(** Same verdict as [Greedy_fill.fits] on the corresponding
    {!Greedy_fill.context} — by frontier dominance when covered, by the
    oracle otherwise. *)
