module P = Ir_assign.Problem

let per_repeater = P.per_rep_power

(* Summed in the same top-down pair order (and with the same
   [meeting_power] products) as the DP's power accumulation and
   [Rank_dp.witness_power], so all three figures agree byte-for-byte on
   the same assignment — the QCheck suite asserts the equalities
   without a tolerance.  The overflow suffix is capacity-only: it holds
   no repeaters, hence burns none. *)
let of_assignment problem (a : Ir_core.Assignment.t) =
  List.fold_left
    (fun acc (pl : Ir_core.Assignment.pair_load) ->
      if pl.bunch_hi > pl.bunch_lo then
        acc
        +. P.meeting_power problem ~pair:pl.pair ~lo:pl.bunch_lo
             ~hi:pl.bunch_hi
      else acc)
    0.0 a.Ir_core.Assignment.meeting

let of_witness = Ir_core.Rank_dp.witness_power

let pareto = Ir_core.Rank_grid.compute_pareto_power
