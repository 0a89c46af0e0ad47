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

val reject_row : Problem.t -> top_pair:int -> bool array -> unit
(** [reject_row t ~top_pair rejected] sets [rejected.(i)], for [i = 0 ..
    n_bunches t], to {!fast_reject} on the context [from_bunch = i], [top_pair],
    [wires_above_top = wires_above_below = Problem.wires_before t i], no
    repeaters and no room taken on [top_pair], bit for bit: the same
    float operations in the same order, in one loop over the prefix
    tables instead of one context per cell.  This is phase A's per-cell
    Definition-3 screen ([Rank_dp.builder] in [Ir_core]). *)

val pack : Problem.t -> context -> placement list option
(** Packs the suffix; returns placements (bottom-up order) or [None] when
    it does not fit.
    @raise Invalid_argument on out-of-range context fields, negative
    counts, or a [top_pair_used] that is not finite (NaN would make
    every capacity test false, and the top-pair screen's slack assumes
    finite loads).

    Both entry points first run {!fast_reject}: a context it rejects
    skips the packing loop (counter [greedy_fill/fast_fails]).  The
    screen is conservative — same verdicts, with a relative slack
    absorbing float summation-order differences — so only
    [greedy_fill/wires_packed] totals change.

    The packing walks the suffix with a cursor from its shortest
    bunch: packing is strictly shortest-first, so only one bunch is
    ever partly packed, and no per-call working array is built.

    {b Top-pair screen.}  Once the pairs below [top_pair] are packed,
    the top pair takes what is left whole, bunch by bunch, shortest
    first ([rem] wires of the cursor's bunch [next], then bunches
    [next - 1] down to [from_bunch]), and the suffix fits iff after
    each bunch the pair's load [A_k + via·(v·(base + R_k) + reps)] is
    at most [cap_q = capacity - top_pair_used] ([A_k] the routing area
    taken so far, [R_k] the suffix wires still unplaced; this is
    {!max_take}'s capacity inequality).  In exact arithmetic each wire
    taken changes the load by its area minus the via stack it no longer
    blocks, and wire areas never decrease along the walk (bunches are
    non-increasing in length by index), so the load is convex in the
    wires taken: its largest value after any bunch is the {e first}
    bunch's or the {e last}'s.  The screen evaluates both ends in O(1):
    - [first], the load after the cursor's [rem] wires, by the walk's
      own expression (one private helper serves both), so [first >
      cap_q] is the walk's own first reject, bit for bit;
    - [last = rem·w(next) + interval_area top [from_bunch, next)
      + via·(v·base + reps)], the load with the whole suffix on the
      pair, from the prefix table.
    With [slack = (4n + 64)·ε·(area_total(top) + |last| + |cap_q| +
    |first|)] ([n] bunches, [ε = epsilon_float], [area_total(top)] the
    top pair's whole prefix table), the screen rejects when [first >
    cap_q] or [last > cap_q + slack], accepts when both ends are at
    most [cap_q - slack], and leaves the band between to the walk
    (counter [greedy_fill/top_walks]).  The slack covers both roundings
    against the exact loads: the walk's sequential sum of at most [n]
    products plus the blockage term and the final additions, at most
    about [(n + 6)·u] times the sum of its non-negative terms ([u =
    ε/2]), and the prefix difference's two sequential sums and the
    cancellation of their difference, at most about [(2n + 8)·u] times
    the table total plus [last].  Together that is under half the
    stated slack.  So a reject means the walk's float load exceeds
    [cap_q] at its last step (or first), and an accept means it stays
    within [cap_q] at every step: the screen's verdicts are the walk's.
    [fits] decides a screened call without walking the top pair; [pack]
    returns [None] on a reject without walking it and walks it on an
    accept, to record the placements.  The [calls], [fast_fails],
    [early_exits] and [below_hits] counters are those of an unscreened
    walk; [wires_packed] and [take_adjustments] count only the wires
    and adjustments walked. *)

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
