module P = Ir_assign.Problem

let per_repeater problem ~pair =
  P.kappa problem
  *. (Ir_ia.Arch.pair (P.arch problem) pair).Ir_ia.Layer_pair.repeater_area

(* The repeater area is summed in the same top-down pair order (and with
   the same [meeting_area] differences) as the DP's accumulation and
   [Rank_dp.witness_power], so the figures agree byte-for-byte on the
   same assignment — the QCheck suite asserts the equality without a
   tolerance.  The overflow suffix is capacity-only: it holds no
   repeaters, hence burns none. *)
let of_assignment problem (a : Ir_core.Assignment.t) =
  P.kappa problem
  *. List.fold_left
       (fun acc (pl : Ir_core.Assignment.pair_load) ->
         if pl.bunch_hi > pl.bunch_lo then
           acc
           +. P.meeting_area problem ~pair:pl.pair ~lo:pl.bunch_lo
                ~hi:pl.bunch_hi
         else acc)
       0.0 a.Ir_core.Assignment.meeting

let of_witness = Ir_core.Rank_dp.witness_power
