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

val pack : ?scratch:Scratch.t -> Problem.t -> context -> placement list option
(** Packs the suffix; returns placements (bottom-up order) or [None] when
    it does not fit.  [?scratch] reuses the arena's int buffer for the
    O(bunches) per-call working array instead of allocating — verdicts,
    placements and counters are byte-identical either way (the refill
    writes exactly what fresh allocation would).
    @raise Invalid_argument on out-of-range context fields.

    Both entry points first run an O(pairs) capacity screen: when the
    suffix's area demand at the narrowest available pitch already
    exceeds the summed per-pair capacity net of the context's blockage
    floor, the packing loop cannot succeed and is skipped (counter
    [greedy_fill/fast_fails]).  The screen is conservative — same
    verdicts, with a relative slack absorbing float summation-order
    differences — so only [greedy_fill/wires_packed] totals change. *)

val fits : ?scratch:Scratch.t -> Problem.t -> context -> bool
(** {!pack} without materializing the placement list. *)

