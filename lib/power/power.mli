(** Repeater power accounting over rank assignments.

    The model charges each repeater of size [s] on a pair

    {v s * (activity * c_o * Vdd^2 * f_clock  +  leakage_per_size) v}

    — dynamic switching of its input capacitance at the design clock
    under the instance's activity factor, plus size-proportional leakage
    — with [Vdd] and the per-size leakage calibrated per technology node
    ({!Ir_tech.Node.vdd}, {!Ir_tech.Node.leakage_per_size}).  The same
    repeater occupies [s * A_dev] of silicon, so power is
    {!Ir_assign.Problem.kappa} times repeater area on every pair, and an
    assignment's power is [kappa] times its repeater area.

    This module is only the reporting side.  A power budget reaches the
    DP as an area cap on {!Ir_assign.Problem.budget}; the rank-vs-power
    frontier is {!Ir_sweep.Power_pareto}. *)

val per_repeater : Ir_assign.Problem.t -> pair:int -> float
(** Watts one repeater burns on [pair]: [kappa] times the pair's
    repeater area. *)

val of_assignment : Ir_assign.Problem.t -> Ir_core.Assignment.t -> float
(** Total repeater power (watts) of an extracted assignment: [kappa]
    times the sum of {!Ir_assign.Problem.meeting_area} over its meeting
    pair loads, top-down.  The capacity-only overflow holds no repeaters
    and contributes nothing.  Byte-identical to {!of_witness} on the
    witness behind the same assignment — same area sum, same order
    (property-tested without a tolerance). *)

val of_witness : Ir_assign.Problem.t -> Ir_core.Rank_dp.witness -> float
(** {!Ir_core.Rank_dp.witness_power}, re-exported: [kappa] times the
    witness's repeater area, summed as the DP accumulated it. *)
