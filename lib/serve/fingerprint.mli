(** Canonical, version-tagged identity of a rank query.

    The serving layer is only sound if {e semantically identical} queries
    collapse onto one cache slot and one in-flight computation.  This
    module defines the query record, its canonical text form, and its
    digest:

    - the node is canonicalized through {!Ir_tech.Node.of_string} (so
      ["130nm"], ["130"] and ["n130"] fingerprint identically);
    - an inline WLD is canonicalized through {!Ir_wld.Dist} (ascending,
      merged bins) and contributes the digest of its canonical CSV, not
      its raw upload bytes;
    - floats are rendered [%.17g] (round-trips every finite value), so
      two queries fingerprint equal iff their parameters are bit-equal;
    - the canonical form opens with a version tag
      ([ia-rank/fingerprint/2]); any future change to the canonical
      rules must bump it, which automatically invalidates every
      previously persisted cache entry instead of silently aliasing old
      results onto new semantics.

    The {e table key} is the fingerprint with the repeater fraction, the
    power fields and the algorithm masked out: phase-A DP tables built
    once at the full budget answer any repeater fraction and any power
    budget (an area cap, {!Ir_assign.Problem.budget}) of the same (node,
    architecture, WLD, clock) family ({!Ir_core.Rank_dp.rebudget}), so
    queries differing only in those fields share a warm-table pool slot. *)

type algo = Dp | Greedy

type t = private {
  node : Ir_tech.Node.t;
  gates : int;
  rent_p : float;
  fan_out : float;
  clock : float;  (** Hz *)
  repeater_fraction : float;
  k : float;  (** ILD permittivity *)
  miller : float;
  bunch_size : int;
  structure : Ir_ia.Arch.structure;
  algo : algo;
  power_budget : float;
      (** repeater power budget, watts ([infinity] = unconstrained, the
          default).  A finite budget caps the repeater area at its
          power equivalent and requires [algo = Dp] *)
  activity : float;
      (** switching activity factor of the power model (default
          {!Ir_assign.Problem.default_activity}); enters the canonical
          form only under a finite [power_budget] — it cannot change
          the answer otherwise *)
  wld : Ir_wld.Dist.t option;
      (** explicit WLD in gate pitches; [None] generates the design's
          Davis WLD, exactly as {!Ir_core.Rank.problem_of_design} does *)
}

val v :
  ?rent_p:float ->
  ?fan_out:float ->
  ?clock:float ->
  ?repeater_fraction:float ->
  ?k:float ->
  ?miller:float ->
  ?bunch_size:int ->
  ?structure:Ir_ia.Arch.structure ->
  ?algo:algo ->
  ?power_budget:float ->
  ?activity:float ->
  ?wld:Ir_wld.Dist.t ->
  node:string ->
  gates:int ->
  unit ->
  (t, string) result
(** Builds and validates a query.  Defaults mirror the [ia_rank rank]
    subcommand: 0.5 GHz clock, repeater fraction 0.4, k 3.9, Miller 2.0,
    bunch size 10000, Rent 0.6, fan-out 3.0, baseline structure, [Dp].
    Validation reuses the constructors underneath
    ({!Ir_tech.Design.v}, {!Ir_ia.Arch.make}, {!Ir_wld.Davis.params}), so
    anything they reject — bad node strings, out-of-range parameters, a
    structure the node's stack cannot host — comes back as [Error]
    with the constructor's message, never as a crash in the server.
    [power_budget] must be positive ([infinity] = unconstrained); a
    finite budget requires [algo = Dp], and [activity] must lie in
    (0, 1].  The power
    fields enter the canonical form only when they can change the
    answer: a finite budget always, the activity only alongside one.

    The instance size is bounded too: a query whose bunch count may
    exceed {!max_bunches} is an [Error] naming the limit ("instance too
    large").  Without an inline WLD the bound is
    [ceil (2 sqrt gates) + ceil (fan_out * gates / bunch_size)],
    computed in floats (an infinite or NaN bound is rejected); with one
    it is {!Ir_wld.Coarsen.bunch_count}.  So a wire line cannot make the
    server loop over billions of Davis lengths or allocate a table per
    wire.

    The version tag is [ia-rank/fingerprint/2] since the power fields
    joined: the bump rotates every digest (old cache entries and
    snapshots miss and recompute — never alias), and the compatibility
    test in [test_serve] pins both the tag and the
    default-power-fields-absent rule. *)

val max_bunches : int
(** 65,536: the most bunches an accepted query may make, seven times the
    bound of the 8-layer 90nm/10M cell at bunch size 10,000 (9,325).  A
    fixed limit, not a setting. *)

val canonical : t -> string
(** The canonical text form the digest is computed over (one sorted
    [key=value] line per field under the version tag).  Exposed for
    tests and for the DESIGN.md §12 contract. *)

val digest : t -> string
(** Hex digest (MD5 content address) of {!canonical}.  Equal queries —
    however they were spelled — digest equal; the cache, the coalescing
    map and the on-disk store are all keyed by this. *)

val table_key : t -> string
(** Hex digest of the canonical form with [repeater_fraction],
    [power_budget], [activity] and [algo] masked — the warm-table pool
    key (see above).  An unpowered query's key is what it was before
    the power fields were masked. *)

val family_key : t -> string
(** Hex digest with {!table_key}'s mask plus [k], [miller] and
    [clock_hz] — the resident-grid family key.  Queries sharing
    it differ only in the coordinates a {!Ir_core.Rank_grid} perturbs
    over (each (materials, clock) pair is a plane inside one grid), so
    the pool answers neighboring-query misses from the family's resident
    grid instead of starting cold.  Strictly coarser than
    {!table_key}. *)

val problem : t -> Ir_assign.Problem.t
(** The assignment instance of the query, built exactly as the CLI
    builds it (same WLD generation, same architecture defaults), so a
    served answer is byte-comparable with [ia_rank rank].
    @raise Invalid_argument only on states {!v} cannot produce. *)

val compute_cold : t -> Ir_core.Outcome.t
(** [problem] followed by the query's algorithm, with no serving-layer
    reuse at all — the reference the cache and warm paths are
    differentially tested against. *)
