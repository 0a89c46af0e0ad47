(* Tests for lib/power: the repeater power model and the power budget.
   Power is kappa times repeater area, so a power budget is an area cap
   on the one repeater budget the DP knows.  The QCheck properties pin
   that reduction on random instances: monotonicity of the model in
   activity factor and clock, the two power accountings (assignment,
   witness) agreeing without a tolerance, a powered compute equal to the
   area-only compute at the same budget, and a shared plane answering
   power budgets exactly as independent computes do. *)

open Helpers
module P = Ir_assign.Problem
module Power = Ir_power.Power
module Grid = Ir_core.Rank_grid

let n_pairs p = Array.length (P.arch p).Ir_ia.Arch.pairs

(* ---- the model -------------------------------------------------------- *)

let test_per_repeater_positive () =
  let p = baseline_130nm_small () in
  for j = 0 to n_pairs p - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "pair %d positive" j)
      true
      (Power.per_repeater p ~pair:j > 0.0)
  done

(* Dynamic switching is linear in the activity factor, so equal activity
   steps must buy equal power increments on every pair (the leakage term
   cancels in the differences). *)
let test_activity_linear () =
  let p = baseline_130nm_small () in
  let at a j = Power.per_repeater (P.with_activity p a) ~pair:j in
  for j = 0 to n_pairs p - 1 do
    check_close ~eps:1e-9
      (Printf.sprintf "pair %d equal increments" j)
      (at 0.2 j -. at 0.1 j)
      (at 0.3 j -. at 0.2 j)
  done

let test_node_constants () =
  let open Ir_tech.Node in
  Alcotest.(check bool) "vdd scales down with the node" true
    (vdd N180 > vdd N130 && vdd N130 > vdd N90 && vdd N90 > 0.0);
  Alcotest.(check bool) "leakage grows as gates shrink" true
    (leakage_per_size N90 > leakage_per_size N130
    && leakage_per_size N130 > leakage_per_size N180
    && leakage_per_size N180 > 0.0)

let prop_monotone_activity =
  qtest ~count:60 "of_witness monotone in activity factor"
    QCheck2.Gen.(
      tup3 gen_instance (float_range 0.01 1.0) (float_range 0.01 1.0))
    (fun ({ problem; label = _ }, a1, a2) ->
      let lo = Float.min a1 a2 and hi = Float.max a1 a2 in
      match Grid.compute problem with
      | _, None -> true
      | _, Some w ->
          Power.of_witness (P.with_activity problem lo) w
          <= Power.of_witness (P.with_activity problem hi) w)

(* The witness's repeater counts belong to the original targets, so the
   clock property is stated on the model itself: every pair's
   per-repeater power grows with the clock (the dynamic term is linear
   in f_clock, leakage is clock-free). *)
let prop_monotone_clock =
  qtest ~count:60 "per_repeater monotone in clock"
    QCheck2.Gen.(pair gen_instance (float_range 1.0 3.0))
    (fun ({ problem; label = _ }, factor) ->
      let clock =
        (P.arch problem).Ir_ia.Arch.design.Ir_tech.Design.clock
      in
      let faster = P.with_clock problem (clock *. factor) in
      let ok = ref true in
      for j = 0 to n_pairs problem - 1 do
        if Power.per_repeater faster ~pair:j < Power.per_repeater problem ~pair:j
        then ok := false
      done;
      !ok)

(* ---- accounting ------------------------------------------------------- *)

(* Assignment.extract expands the same witness, so the accountings — the
   extracted assignment's interval sum, the witness sum, and a by-hand
   replay of the documented formula — must agree to the byte, no
   tolerance. *)
let prop_accounting_identity =
  qtest ~count:60 "of_assignment = of_witness = interval sum, byte-exact"
    gen_instance
    (fun { problem; label = _ } ->
      match Grid.compute problem with
      | _, None -> true
      | o, Some w ->
          let a = Ir_core.Assignment.extract problem in
          let manual =
            P.kappa problem
            *. List.fold_left
                 (fun acc (pl : Ir_core.Assignment.pair_load) ->
                   if pl.bunch_hi > pl.bunch_lo then
                     acc
                     +. P.meeting_area problem ~pair:pl.pair ~lo:pl.bunch_lo
                          ~hi:pl.bunch_hi
                   else acc)
                 0.0 a.Ir_core.Assignment.meeting
          in
          a.Ir_core.Assignment.outcome.Ir_core.Outcome.rank_wires
          = o.Ir_core.Outcome.rank_wires
          && Power.of_assignment problem a = manual
          && Power.of_assignment problem a = Power.of_witness problem w)

(* ---- the power budget as an area cap ---------------------------------- *)

(* The area-only instance whose repeater budget is exactly [budget]: the
   fraction [budget / die] nudged by a few ulps until the product lands
   on [budget], or [None] when no fraction near it does. *)
let area_only p budget =
  let die = P.budget (P.with_repeater_fraction p 1.0) in
  let at f = P.with_repeater_fraction p f in
  let rec nudge f k =
    if k = 0 || not (f >= 0.0 && f <= 1.0) then None
    else
      let q = at f in
      let b = P.budget q in
      if b = budget then Some q
      else nudge (if b < budget then Float.succ f else Float.pred f) (k - 1)
  in
  nudge (Float.min 1.0 (budget /. die)) 8

(* The soundness anchor at instance granularity: threading an infinite
   power budget (and a non-default activity, so kappa really differs)
   through the DP must leave the outcome, the witness AND every counter
   byte-identical to the area-only run. *)
let prop_infinite_budget_identity =
  qtest ~count:40 "infinite budget = area-only, outcome and counters"
    gen_instance
    (fun { problem; label = _ } ->
      Ir_obs.reset ();
      let plain = Grid.compute problem in
      let plain_snap = Ir_obs.snapshot () in
      Ir_obs.reset ();
      let powered_inf =
        Grid.compute
          (P.with_power_budget (P.with_activity problem 0.45) infinity)
      in
      let inf_snap = Ir_obs.snapshot () in
      Ir_obs.reset ();
      plain = powered_inf
      && plain_snap.Ir_obs.counters = inf_snap.Ir_obs.counters
      && plain_snap.Ir_obs.gauges = inf_snap.Ir_obs.gauges)

(* A power budget is only an area cap: a powered compute equals the
   area-only compute at the same repeater budget, outcome and witness,
   with no tolerance, and its witness reports within the watts. *)
let prop_powered_equals_area_only =
  qtest ~count:40 "powered compute = area-only compute at its cap"
    QCheck2.Gen.(pair gen_instance (float_range 0.05 1.2))
    (fun ({ problem; label }, u) ->
      match Grid.compute problem with
      | _, None -> true
      | _, Some w -> (
          let p_inf = Power.of_witness problem w in
          if not (p_inf > 0.0) then true
          else
            let watts = u *. p_inf in
            let powered = P.with_power_budget problem watts in
            let o, wp = Grid.compute powered in
            (match wp with
            | Some wp when Power.of_witness powered wp > watts ->
                QCheck2.Test.fail_reportf "%s: witness burns %h W > %h W" label
                  (Power.of_witness powered wp) watts
            | _ -> ());
            match area_only problem (P.budget powered) with
            | None -> true
            | Some q ->
                let oq, wq = Grid.compute q in
                if not (Ir_core.Outcome.equal o oq && wp = wq) then
                  QCheck2.Test.fail_reportf
                    "%s: powered rank %d, area-only rank %d at the same budget"
                    label o.Ir_core.Outcome.rank_wires
                    oq.Ir_core.Outcome.rank_wires
                else true))

(* A finite budget can only lose rank; the budget is respected by the
   returned witness; and a budget of exactly the unconstrained witness's
   own spend loses nothing (its area is within the cap by construction,
   so the same witness stays admissible). *)
let prop_budget_binds_soundly =
  qtest ~count:40 "finite budgets: monotone loss, exact self-recovery"
    gen_instance
    (fun { problem; label = _ } ->
      match Grid.compute problem with
      | _, None -> true
      | o, Some w ->
          let p_inf = Power.of_witness problem w in
          if not (p_inf > 0.0) then true
          else
            let within watts =
              let p = P.with_power_budget problem watts in
              let o', w' = Grid.compute p in
              let spend =
                match w' with Some w' -> Power.of_witness p w' | None -> 0.0
              in
              (o'.Ir_core.Outcome.rank_wires, spend <= watts)
            in
            let half, half_ok = within (0.5 *. p_inf) in
            let full, full_ok = within p_inf in
            half <= o.Ir_core.Outcome.rank_wires
            && half_ok
            && full = o.Ir_core.Outcome.rank_wires
            && full_ok)

(* One resident plane answering a whole power-budget sweep must agree
   with independently computed points: a power budget rebinds the plane
   exactly as a fraction does (the displacement argument at
   [Rank_dp.rebudget]). *)
let prop_sweep_matches_independent =
  qtest ~count:30 "resident power budgets = independent recomputes"
    gen_instance
    (fun { problem; label = _ } ->
      match Grid.compute problem with
      | _, None -> true
      | _, Some w ->
          let p_inf = Power.of_witness problem w in
          if not (p_inf > 0.0) then true
          else
            let g = Grid.resident problem in
            ignore (Grid.build_plane g (Grid.point ()));
            List.for_all
              (fun b ->
                let alone = Grid.compute (P.with_power_budget problem b) in
                match Grid.query ~power_budget:b g (Grid.point ()) with
                | Some shared -> shared = alone
                | None -> true)
              [ 0.3 *. p_inf; 0.7 *. p_inf; p_inf; infinity ])

(* On the Table-2 baseline, the witness at each repeater fraction,
   budgeted at exactly its own reported power, is admitted again: the
   rank is recovered with the same witness.  These fractions are the
   floating-point ties the exact cap exists for — each witness's area
   sits one ulp above [P /. kappa], so a cap of [fl (P / kappa)] drops
   the rank by one bunch (at 0.39: 1,159,459 to 1,149,459). *)
let test_baseline_self_recovery () =
  let base = Ir_sweep.Table4.baseline_problem Ir_sweep.Table4.default_config in
  let full = P.with_repeater_fraction base 1.0 in
  List.iter
    (fun (f, rank) ->
      let p = P.with_repeater_fraction base f in
      let o, w = Grid.compute p in
      let label = Printf.sprintf "fraction %.3f" f in
      Alcotest.(check int) (label ^ ": rank") rank o.Ir_core.Outcome.rank_wires;
      let watts =
        match w with
        | Some w -> Power.of_witness p w
        | None -> Alcotest.fail (label ^ ": unassignable")
      in
      let o', w' = Grid.compute (P.with_power_budget full watts) in
      Alcotest.(check int) (label ^ ": own spend recovers the rank") rank
        o'.Ir_core.Outcome.rank_wires;
      Alcotest.(check bool) (label ^ ": same witness") true (w = w'))
    [
      (0.195, 580_267); (0.205, 610_267); (0.39, 1_159_459); (0.4, 1_199_459);
    ]

(* A zero repeater budget, by area or by power: fraction 0 and a power
   budget below one repeater's power both leave only the repeater-free
   intervals, so both give the no-repeater rank the exhaustive oracle
   finds at fraction 0. *)
let prop_zero_budget_no_repeater_rank =
  qtest ~count:80 "zero repeater budget = no-repeater rank (brute)"
    gen_instance
    (fun { problem; label } ->
      let zero = P.with_repeater_fraction problem 0.0 in
      let cheapest =
        List.fold_left Float.min infinity
          (List.init (n_pairs problem) (fun j ->
               Power.per_repeater problem ~pair:j))
      in
      let starved = P.with_power_budget problem (0.5 *. cheapest) in
      let brute = (Ir_core.Rank_brute.compute zero).Ir_core.Outcome.rank_wires in
      let by_area = (fst (Grid.compute zero)).Ir_core.Outcome.rank_wires in
      let by_power = (fst (Grid.compute starved)).Ir_core.Outcome.rank_wires in
      if by_area <> brute || by_power <> brute then
        QCheck2.Test.fail_reportf "%s: brute %d, fraction 0 %d, starved power %d"
          label brute by_area by_power
      else true)

let test_budget_validation () =
  let p = baseline_130nm_small () in
  List.iter
    (fun b ->
      match P.with_power_budget p b with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "budget %g accepted" b)
    [ 0.0; -1.0; Float.nan ]

(* The frontier over a resident plane, as [Power_pareto] answers it. *)
let frontier p budgets =
  let g = Grid.resident p in
  ignore (Grid.build_plane g (Grid.point ()));
  List.map
    (fun b ->
      match Grid.query ~power_budget:b g (Grid.point ()) with
      | Some r -> r
      | None -> Grid.compute (P.with_power_budget p b))
    budgets

let test_small_frontier () =
  let p = baseline_130nm_small () in
  let o, w = Grid.compute p in
  let p_inf =
    match w with
    | Some w -> Power.of_witness p w
    | None -> Alcotest.fail "baseline unassignable"
  in
  let budgets = List.map (fun f -> f *. p_inf) [ 0.25; 0.5; 1.0 ] in
  let pts = frontier p budgets in
  Alcotest.(check int) "three points" 3 (List.length pts);
  let ranks =
    List.map (fun ((o : Ir_core.Outcome.t), _) -> o.rank_wires) pts
  in
  Alcotest.(check bool) "ranks nondecreasing in budget" true
    (List.sort compare ranks = ranks);
  List.iter2
    (fun b (_, w) ->
      match w with
      | Some w ->
          Alcotest.(check bool) "spend within budget" true
            (Power.of_witness p w <= b)
      | None -> ())
    budgets pts;
  Alcotest.(check int) "full-spend budget recovers the unconstrained rank"
    o.Ir_core.Outcome.rank_wires
    (List.nth ranks 2)

(* Power_pareto's plane build runs on the pool; a jobs=1 and a jobs=2
   run must return identical frontiers. *)
let test_pareto_engines_agree () =
  let config =
    {
      Ir_sweep.Table4.default_config with
      design = Ir_tech.Design.v ~node:Ir_tech.Node.N130 ~gates:40_000 ();
      bunch_size = 500;
    }
  in
  let rows (r : Ir_sweep.Power_pareto.result) =
    List.map
      (fun (row : Ir_sweep.Power_pareto.row) ->
        (row.fraction, row.budget, row.outcome, row.power))
      r.rows
  in
  let seq = Ir_sweep.Power_pareto.run ~jobs:1 ~config () in
  let par = Ir_sweep.Power_pareto.run ~jobs:2 ~config () in
  Alcotest.(check bool) "non-empty frontier" true (seq.rows <> []);
  Alcotest.(check bool) "identical frontiers" true (rows seq = rows par)

let () =
  Alcotest.run "power"
    [
      ( "model",
        [
          Alcotest.test_case "per-repeater positive" `Quick
            test_per_repeater_positive;
          Alcotest.test_case "linear in activity" `Quick test_activity_linear;
          Alcotest.test_case "node constants" `Quick test_node_constants;
          prop_monotone_activity;
          prop_monotone_clock;
        ] );
      ( "accounting",
        [ prop_accounting_identity ] );
      ( "dual budget",
        [
          prop_infinite_budget_identity;
          prop_powered_equals_area_only;
          prop_budget_binds_soundly;
          prop_sweep_matches_independent;
          Alcotest.test_case "baseline self-recovery" `Quick
            test_baseline_self_recovery;
          prop_zero_budget_no_repeater_rank;
          Alcotest.test_case "budget validation" `Quick test_budget_validation;
          Alcotest.test_case "small frontier" `Quick test_small_frontier;
          Alcotest.test_case "engines agree" `Quick test_pareto_engines_agree;
        ] );
    ]
