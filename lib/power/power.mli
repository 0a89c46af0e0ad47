(** Repeater power accounting over rank assignments.

    The model ({!Ir_assign.Problem.per_rep_power}) charges each repeater
    on layer-pair [j]

    {v activity * (s_opt_j * c_o) * Vdd^2 * f_clock  +  s_opt_j * leakage v}

    — dynamic switching of its input capacitance at the design clock
    under the instance's activity factor, plus size-proportional leakage
    — with [Vdd] and the per-size leakage calibrated per technology node
    ({!Ir_tech.Node.vdd}, {!Ir_tech.Node.leakage_per_size}) and [s_opt]
    the pair's delay-optimal repeater size.  Only the meeting prefix
    holds repeaters, so an assignment's power is a sum of O(1) interval
    lookups over its meeting pair loads.

    This module is the reporting surface of the model; the optimizing
    side — a second budget threaded through the DP and the
    rank-vs-power frontier — lives in {!Ir_core.Rank_dp} (power mode)
    and {!Ir_core.Rank_grid.compute_pareto_power}, re-exported here as
    {!pareto}. *)

val per_repeater : Ir_assign.Problem.t -> pair:int -> float
(** Watts one repeater burns on [pair] —
    {!Ir_assign.Problem.per_rep_power}. *)

val of_assignment : Ir_assign.Problem.t -> Ir_core.Assignment.t -> float
(** Total repeater power (watts) of an extracted assignment: the sum of
    {!Ir_assign.Problem.meeting_power} over its meeting pair loads,
    top-down.  The capacity-only overflow holds no repeaters and
    contributes nothing.  Byte-identical to {!of_witness} on the witness
    behind the same assignment, and to the power coordinate the
    power-mode DP carried for that state — same products, same
    summation order (property-tested without a tolerance). *)

val of_witness : Ir_assign.Problem.t -> Ir_core.Rank_dp.witness -> float
(** {!Ir_core.Rank_dp.witness_power}, re-exported: the same sum taken
    directly from a search witness. *)

val pareto :
  ?max_pareto:int ->
  ?widen_on_overflow:bool ->
  ?widen_cap:int ->
  ?jobs:int ->
  Ir_assign.Problem.t ->
  float list ->
  Ir_core.Rank_grid.power_point list
(** The rank-vs-power frontier at [problem]'s area budget:
    {!Ir_core.Rank_grid.compute_pareto_power} — the rank at each power
    budget (watts, [infinity] allowed), one shared power-mode build
    answering every finite point, the points evaluated on the
    {!Ir_exec} pool ([?jobs]) with jobs-invariant outcomes and counters.
    @raise Invalid_argument on a budget [<= 0]. *)
