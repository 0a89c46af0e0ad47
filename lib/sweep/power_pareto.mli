(** The rank-vs-power Pareto surface at the Table 2 baseline: how much
    rank the design keeps as the repeater power budget tightens, with
    the area budget held at the baseline's.

    The sweep is self-calibrating: it first computes the area-only
    optimum and the watts its witness burns ({e the unconstrained
    power}), then evaluates the frontier at a grid of {e fractions} of
    that spend — so the exported table tracks the power model's
    calibration instead of hard-coding watt values.  Power is
    {!Ir_assign.Problem.kappa} times repeater area, so each point is the
    baseline at the budget's area cap — the R column rescaled by
    [kappa] — answered from one resident plane built at the baseline's
    own budget ({!Ir_core.Rank_grid.query}); [?jobs] sets the plane
    build's pool, with identical outcomes and jobs-invariant
    counters. *)

type row = {
  fraction : float;  (** budget as a fraction of the unconstrained power *)
  budget : float;  (** the power budget, watts *)
  outcome : Ir_core.Outcome.t;
  power : float;  (** watts the point's witness actually burns *)
}

type result = {
  activity : float;  (** switching activity factor the model ran at *)
  unconstrained : Ir_core.Outcome.t;  (** the area-only optimum *)
  unconstrained_power : float;  (** watts its witness burns *)
  rows : row list;  (** one per fraction, ascending *)
  seconds : float;  (** wall time of the whole sweep *)
}

val run :
  ?jobs:int ->
  ?config:Table4.config ->
  ?activity:float ->
  ?fractions:float list ->
  unit ->
  result
(** Runs the sweep on [config]'s baseline instance
    ({!Table4.baseline_problem}) at every one of [fractions] (default
    0.05 … 1.0, denser below 0.5 where the frontier bends).  [rows] is
    empty when the baseline is unassignable or repeater-free (no spend
    to budget a fraction of).
    @raise Invalid_argument on a fraction outside (0, 1]. *)

val monotone : result -> bool
(** The frontier's sanity contract, exposed for the power gate test: rank
    non-decreasing in the budget, and the fraction-1.0 point (budget =
    the unconstrained witness's own spend) recovering exactly the
    unconstrained rank. *)
