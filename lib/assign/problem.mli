(** A rank-computation instance: an architecture plus a coarsened WLD with
    per-bunch targets and precomputed assignment tables.

    The unit of assignment is a {e bunch} of identical-length wires (paper
    Section 5.1); bunch index 0 holds the longest wires.  For every
    (layer-pair, bunch) combination the constructor precomputes the routing
    area the bunch consumes, and the minimal per-wire repeater count that
    meets the bunch's target delay on that pair (or its infeasibility).
    Prefix-sum tables make every interval query O(1), which is what gives
    the optimized rank DP its speed. *)

type t

val make :
  ?target_model:Ir_delay.Target.t ->
  ?noise_limit:float ->
  ?activity:float ->
  ?power_budget:float ->
  ?bunch_size:int ->
  arch:Ir_ia.Arch.t ->
  wld:Ir_wld.Dist.t ->
  unit ->
  t
(** [make ~arch ~wld ()] builds an instance from a WLD whose lengths are in
    gate pitches (converted to meters with the design's effective gate
    pitch).  Defaults: [target_model = Linear] (the paper's),
    [bunch_size = 10000] (the paper's Section 5.2 value), no noise limit.

    When [noise_limit] is given (a fraction of Vdd, e.g. 0.15), a
    layer-pair whose {!Ir_rc.Noise.peak_ratio} exceeds it cannot host
    meeting wires at all — a noise-aware variant of the rank metric (the
    signal-integrity concern of the paper's Section 1).

    [activity] (default {!default_activity}) is the switching activity
    factor of the repeater power model; [power_budget] (watts, default
    [infinity] = unconstrained) caps the repeater area at its
    {!kappa}-equivalent (see {!budget}).  Both are validated: activity in
    (0, 1], budget positive.
    @raise Invalid_argument on an empty WLD, or a bunch length that is
    not positive and finite after the conversion to meters. *)

val of_bunches :
  ?target_model:Ir_delay.Target.t ->
  ?noise_limit:float ->
  ?activity:float ->
  ?power_budget:float ->
  arch:Ir_ia.Arch.t ->
  bunches:Ir_wld.Dist.bin array ->
  unit ->
  t
(** Builds an instance directly from bunches whose lengths are in {e
    meters}, sorted by non-increasing length (checked).  Used by tests and
    by synthetic scenarios such as the paper's Figure 2.
    @raise Invalid_argument if bunches are empty, unsorted or have
    non-positive counts, lengths that are not positive and finite, or a
    total routing area past [max_float].  Finite lengths and totals keep
    every routing-area prefix table a sequential sum of finite
    non-negative terms with finite entries, which [Rank_dp]'s monotone
    [Break] tests rely on. *)

(** {1 Dimensions} *)

val arch : t -> Ir_ia.Arch.t
val n_bunches : t -> int
val n_pairs : t -> int
val total_wires : t -> int

val bunch_length : t -> int -> float
(** Length in meters of the wires of bunch [b]. *)

val bunch_count : t -> int -> int
(** Number of wires in bunch [b]. *)

val wires_before : t -> int -> int
(** [wires_before t i] is the total wire count of bunches [0 .. i-1]
    (so [wires_before t 0 = 0] and
    [wires_before t (n_bunches t) = total_wires t]). *)

val target : t -> int -> float
(** Target delay (seconds) of each wire in bunch [b]. *)

(** {1 Capacities and budgets} *)

val capacity : t -> float
(** Routing capacity of each layer-pair before via blockage, m^2. *)

val budget : t -> float
(** Repeater area budget A_R, m^2: the smaller of the fraction-of-die
    budget and the power budget's area cap
    [max { a : kappa t *. a <= power_budget t }] (the largest area whose
    reported power is within the budget, exact to the ulp).  This is the
    only place the power budget enters the DP. *)

val default_activity : float
(** Default switching activity factor (0.15, the conventional estimate
    for global interconnect). *)

val activity : t -> float
(** Switching activity factor of the power model. *)

val power_budget : t -> float
(** Repeater power budget P_R, watts; [infinity] when unconstrained. *)

val kappa : t -> float
(** Watts per m^2 of repeater area:
    [(activity * c_o * Vdd^2 * f_clock + leakage_per_size) / A_dev].  A
    size-[s] repeater burns [s] times the numerator and occupies [s *
    A_dev], so power is [kappa] times repeater area on every pair.
    Calibration constants come from {!Ir_tech.Node} ([vdd],
    [leakage_per_size]) and the node's device; the activity factor is
    this instance's. *)

val blocked : t -> pair:int -> wires_above:int -> reps_above:int -> float
(** Via-blocked area on [pair] given wires and repeaters on pairs above. *)

(** {1 Interval queries (O(1))} *)

val interval_area : t -> pair:int -> lo:int -> hi:int -> float
(** Routing area consumed on [pair] by bunches [lo .. hi-1], m^2. *)

val eta_min : t -> pair:int -> bunch:int -> int option
(** Minimal per-wire repeater count for bunch [bunch] to meet its target on
    [pair]; [None] when the target is unreachable there. *)

val meeting_cost : t -> pair:int -> lo:int -> hi:int -> (float * int) option
(** [meeting_cost t ~pair ~lo ~hi] is [Some (area, count)]: the repeater
    area (m^2) and repeater count needed for {e every} wire of bunches
    [lo .. hi-1] to meet its target on [pair]; [None] if any of those
    bunches is infeasible there.  The count is exact — it is differenced
    from an integer prefix table, never recovered from floats. *)

val meeting_feasible : t -> pair:int -> lo:int -> hi:int -> bool
(** [meeting_cost] is [Some _] — as a bare boolean, for the DP hot loop. *)

val meeting_area : t -> pair:int -> lo:int -> hi:int -> float
(** The area component of {!meeting_cost}, unboxed.  Meaningful only when
    {!meeting_feasible} holds (infeasible bunches contribute 0). *)

val meeting_count : t -> pair:int -> lo:int -> hi:int -> int
(** The count component of {!meeting_cost}, unboxed; same caveat.

    These three exist because {!meeting_cost} allocates a [Some (float *
    int)] per call — hundreds of millions of calls per table build in the
    rank DP made that option the dominant allocation source. *)

val wire_delay_on_pair : t -> pair:int -> eta:int -> float -> float
(** Eq. (3) delay of a single wire of the given length (m) on [pair] with
    [eta] repeaters of the pair's uniform size — exposed for reporting. *)

(** {1 Rescale-reuse constructors}

    Sweeps that vary only the repeater budget or the target clock (the
    paper's Table 4 columns R and C) need not re-bunch the WLD or rebuild
    every prefix table; these constructors derive a new instance from an
    existing one, reusing everything a parameter change leaves valid.
    Both return a fresh immutable value — the original stays usable, so
    the sweep points built from one base instance can be evaluated
    concurrently. *)

val with_repeater_fraction : t -> float -> t
(** [with_repeater_fraction t r] is [t] with the usable repeater fraction
    set to [r].  The budget enters no precomputed table, so every table is
    shared with [t] as-is.
    @raise Invalid_argument if [r] is outside [0, 1]. *)

val with_power_budget : t -> float -> t
(** [with_power_budget t p] is [t] with the repeater power budget set to
    [p] watts — a pure rebind: only {!budget}'s area cap moves, every
    table is shared verbatim.
    @raise Invalid_argument if [p <= 0] ([infinity] is allowed). *)

val with_activity : t -> float -> t
(** [with_activity t a] is [t] at activity factor [a]: {!kappa} and the
    area cap move, every table is shared verbatim.
    @raise Invalid_argument if [a] is outside (0, 1]. *)

val with_clock : t -> float -> t
(** [with_clock t f] is [t] with the target clock set to [f] Hz.  Reuses
    the bunching, wire and routing-area prefixes; recomputes the targets
    and the repeater tables they determine.
    @raise Invalid_argument if [f <= 0]. *)

val with_materials : t -> Ir_ia.Materials.t -> t
(** [with_materials t mats] is [t] with the dielectric/capacitance
    materials replaced (the paper's Table 4 columns K and M).  Reuses the
    bunching, targets (clock-only), wire and routing-area prefixes
    (geometry-only); re-derives the architecture's electricals and the
    repeater tables.  The result is bit-equal to constructing a fresh
    instance at the new materials — the reused fields are the same
    expressions over unchanged inputs. *)
