(** Capacity-only wire packing — the paper's Algorithm 5 (procedure
    [greedy_assign], the recurrence's M'' term).

    Packs the suffix of the WLD (the wires below the meeting-delay
    boundary) into the remaining layer-pairs bottom-up, shortest wires
    first, ignoring delay.  The paper's Lemma 1 argues this bottom-up
    packing is optimal; it is exactly the feasibility check behind
    Definition 3.

    Via blockage follows the paper's Table 1 definitions: pair [q] loses
    [v_a(q)] per via from every wire ([v] vias each) and every repeater on
    pairs {e strictly above} [q].  (Algorithm 5's pseudocode instead
    charges wires packed so far — an approximation of the same quantity;
    we implement the definition, see DESIGN.md.)  A wire's own vias are
    part of its routing area (Section 3's assumption list).  Since the
    number of suffix wires that end up above [q] depends on how many land
    on [q], the per-pair fill solves the resulting linear condition in
    closed form per bunch; bunches may split across pairs, as the paper
    packs individual wires. *)

type placement = {
  pair : int;  (** layer-pair index (0 = topmost) *)
  bunch : int;  (** bunch index *)
  wires : int;  (** how many wires of the bunch landed on this pair *)
}
[@@deriving show, eq]

type context = {
  from_bunch : int;  (** suffix bunches [from_bunch ..] are to be packed *)
  top_pair : int;  (** pairs [top_pair ..] are available *)
  top_pair_used : float;
      (** routing area already consumed on [top_pair] by meeting wires *)
  wires_above_top : int;
      (** wires on pairs strictly above [top_pair] (blockage for it) *)
  reps_above_top : int;
      (** repeaters in wires on pairs strictly above [top_pair] *)
  wires_above_below : int;
      (** wires on pairs [<= top_pair] that are not suffix wires — blockage
          baseline for every pair strictly below [top_pair] *)
  reps_above_below : int;
      (** all repeaters (they all live at or above [top_pair]) *)
}

val context :
  ?top_pair_used:float ->
  ?wires_above_top:int ->
  ?reps_above_top:int ->
  ?wires_above_below:int ->
  ?reps_above_below:int ->
  from_bunch:int ->
  top_pair:int ->
  unit ->
  context
(** All optional fields default to zero. *)

val max_take :
  cap:float ->
  a_w:float ->
  wire_area:float ->
  via:float ->
  v:int ->
  base_wires:int ->
  reps:int ->
  suffix_above:int ->
  available:int ->
  int
(** The per-pair fill step: the largest [x <= available] wires of one
    bunch that fit on a pair with capacity [cap], [a_w] wire-area already
    packed on it, [via]/[v] the via area and vias per wire, [base_wires]
    non-suffix wires above, [reps] repeaters above, and [suffix_above]
    suffix wires currently above the pair (including the candidates).
    The returned [x] is verified against the exact capacity inequality —
    the closed-form [floor (room / net)] solve alone can be off by one in
    either direction from float rounding.  Exposed for the regression
    tests pinning that behaviour. *)

val fast_reject : Problem.t -> context -> bool
(** The O(pairs) capacity screen {!pack} and {!fits} run first: [true]
    when the suffix's area demand at the narrowest pitch among pairs
    [top_pair ..] exceeds, by more than a [1e-9] relative slack, the
    summed per-pair capacity net of the context's blockage floor (the
    via stacks of the context's wires and repeaters alone, as if no
    suffix wire were ever above a pair).  [true] is a certain reject:
    any packing of the suffix on those pairs routes at least that area
    (a wire's area is its length times its pair's pitch) and keeps each
    pair's routing plus blockage within capacity, and blockage never
    falls below the floor.  So [fast_reject t ctx] implies
    [not (fits t ctx)], and it stays true for any context with more
    wires or repeaters above and no more room on [top_pair].  [false]
    decides nothing.  Counts nothing; assumes a context {!pack} would
    accept. *)

val pack : Problem.t -> context -> placement list option
(** Packs the suffix; returns placements (bottom-up order) or [None] when
    it does not fit.
    @raise Invalid_argument on out-of-range context fields.

    Both entry points first run {!fast_reject}: a context it rejects
    skips the packing loop (counter [greedy_fill/fast_fails]).  The
    screen is conservative — same verdicts, with a relative slack
    absorbing float summation-order differences — so only
    [greedy_fill/wires_packed] totals change.

    The packing walks the suffix with a cursor from its shortest
    bunch: packing is strictly shortest-first, so only one bunch is
    ever partly packed, and no per-call working array is built. *)

val fits : ?scratch:Scratch.t -> Problem.t -> context -> bool
(** {!pack} without materializing the placement list.

    {b Staged packing.}  The pack runs in two stages.  The pairs
    strictly below [top_pair] read only the problem, [from_bunch],
    [top_pair], [wires_above_below] and [reps_above_below]; the top
    pair also reads [top_pair_used], [wires_above_top] and
    [reps_above_top].  With [?scratch], a call that packs the pairs
    below leaves their cursor and packed count in the arena
    ({!Scratch.below}), and a call whose below-stage fields match (the
    problem compared by [==]) resumes at the top pair instead: a {e
    hit}, counted on [greedy_fill/below_hits].  The resumed top stage
    runs the same float operations in the same order as a full pack,
    so the verdict and the [calls], [fast_fails] and [early_exits]
    counters are those of a call without the arena.
    [greedy_fill/wires_packed] and [greedy_fill/take_adjustments] count
    work done: a hit adds only the top pair's.  Phase B's witness
    probes share the below-stage fields across the states of a cell and
    vary the top pair's load, which is where hits come from. *)
