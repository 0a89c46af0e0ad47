(* Tests for lib/power: the repeater power model and the dual-budget
   (rank-vs-power) surface.  The QCheck properties pin the subsystem's
   contracts on random instances: monotonicity of the model in activity
   factor and clock, the three power accountings (assignment, witness,
   the DP's own coordinate) agreeing without a tolerance, and the
   infinite-budget run being byte-identical — outcome and counters — to
   the area-only path. *)

open Helpers
module P = Ir_assign.Problem
module Power = Ir_power.Power
module Dp = Ir_core.Rank_dp
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

(* Assignment.extract expands the same witness, so the three accountings —
   the extracted assignment's interval sum, the witness sum, and a
   by-hand replay of the documented formula — must agree to the byte,
   no tolerance. *)
let prop_accounting_identity =
  qtest ~count:60 "of_assignment = of_witness = interval sum, byte-exact"
    gen_instance
    (fun { problem; label = _ } ->
      match Grid.compute problem with
      | _, None -> true
      | o, Some w ->
          let a = Ir_core.Assignment.extract problem in
          let manual =
            List.fold_left
              (fun acc (pl : Ir_core.Assignment.pair_load) ->
                if pl.bunch_hi > pl.bunch_lo then
                  acc
                  +. P.meeting_power problem ~pair:pl.pair ~lo:pl.bunch_lo
                       ~hi:pl.bunch_hi
                else acc)
              0.0 a.Ir_core.Assignment.meeting
          in
          a.Ir_core.Assignment.outcome.Ir_core.Outcome.rank_wires
          = o.Ir_core.Outcome.rank_wires
          && Power.of_assignment problem a = manual
          && Power.of_assignment problem a = Power.of_witness problem w)

(* ---- the dual budget -------------------------------------------------- *)

(* The soundness anchor at instance granularity: threading an infinite
   power budget (and a non-default activity, so the power tables really
   differ) through the DP must leave the outcome AND every counter
   byte-identical to the area-only run. *)
let prop_infinite_budget_identity =
  qtest ~count:40 "infinite budget = area-only, outcome and counters"
    gen_instance
    (fun { problem; label = _ } ->
      Ir_obs.reset ();
      let plain = fst (Grid.compute problem) in
      let plain_snap = Ir_obs.snapshot () in
      Ir_obs.reset ();
      let powered_inf =
        fst
          (Grid.compute
             (P.with_power_budget (P.with_activity problem 0.45) infinity))
      in
      let inf_snap = Ir_obs.snapshot () in
      Ir_obs.reset ();
      plain = powered_inf
      && plain_snap.Ir_obs.counters = inf_snap.Ir_obs.counters
      && plain_snap.Ir_obs.gauges = inf_snap.Ir_obs.gauges)

(* A finite budget can only lose rank; the budget is respected by the
   returned witness; and a budget of exactly the unconstrained witness's
   own spend loses nothing (the DP's power coordinate reproduces the
   spend byte-for-byte, so the same witness stays admissible). *)
let prop_budget_binds_soundly =
  qtest ~count:40 "finite budgets: monotone loss, exact self-recovery"
    gen_instance
    (fun { problem; label = _ } ->
      match Grid.compute problem with
      | _, None -> true
      | o, Some w -> (
          let p_inf = Power.of_witness problem w in
          if not (p_inf > 0.0) then true
          else
            let half = P.with_power_budget problem (0.5 *. p_inf) in
            let oh, wh = Grid.compute half in
            let within =
              match wh with
              | None -> true
              | Some wh -> Power.of_witness half wh <= 0.5 *. p_inf
            in
            oh.Ir_core.Outcome.rank_wires <= o.Ir_core.Outcome.rank_wires
            && within
            &&
            match
              Grid.compute_pareto_power problem [ p_inf ]
            with
            | [ pt ] ->
                pt.Grid.pp_outcome.Ir_core.Outcome.rank_wires
                = o.Ir_core.Outcome.rank_wires
                && pt.Grid.pp_power <= p_inf
            | _ -> false))

(* One power-mode build answering a whole budget sweep must agree with
   independently computed points (the componentwise displacement
   argument behind compute_pareto_power). *)
let prop_sweep_matches_independent =
  qtest ~count:30 "compute_pareto_power = independent recomputes"
    gen_instance
    (fun { problem; label = _ } ->
      match Grid.compute problem with
      | _, None -> true
      | _, Some w ->
          let p_inf = Power.of_witness problem w in
          if not (p_inf > 0.0) then true
          else
            let budgets =
              [ 0.3 *. p_inf; 0.7 *. p_inf; p_inf; infinity ]
            in
            let swept = Grid.compute_pareto_power problem budgets in
            List.for_all2
              (fun b (pt : Grid.power_point) ->
                let alone = fst (Grid.compute (P.with_power_budget problem b)) in
                pt.Grid.pp_budget = b && pt.Grid.pp_outcome = alone)
              budgets swept)

let test_powered_tables_refuse_encode () =
  let p = P.with_power_budget (baseline_130nm_small ()) 0.01 in
  let tables = Dp.build_tables p in
  match Dp.encode_tables tables with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "power-mode tables must refuse encode_tables"

let test_pareto_validation () =
  let p = baseline_130nm_small () in
  List.iter
    (fun budgets ->
      match Power.pareto p budgets with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument on budget <= 0")
    [ [ 0.0 ]; [ -1.0 ]; [ 0.1; -0.1 ] ]

let test_pareto_small_frontier () =
  let p = baseline_130nm_small () in
  let o, w = Grid.compute p in
  let p_inf =
    match w with
    | Some w -> Power.of_witness p w
    | None -> Alcotest.fail "baseline unassignable"
  in
  let budgets = List.map (fun f -> f *. p_inf) [ 0.25; 0.5; 1.0 ] in
  let pts = Power.pareto p budgets in
  Alcotest.(check int) "three points" 3 (List.length pts);
  let ranks =
    List.map (fun (pt : Grid.power_point) ->
        pt.Grid.pp_outcome.Ir_core.Outcome.rank_wires)
      pts
  in
  Alcotest.(check bool) "ranks nondecreasing in budget" true
    (List.sort compare ranks = ranks);
  List.iter2
    (fun b (pt : Grid.power_point) ->
      Alcotest.(check bool) "spend within budget" true (pt.Grid.pp_power <= b))
    budgets pts;
  Alcotest.(check int) "full-spend budget recovers the unconstrained rank"
    o.Ir_core.Outcome.rank_wires
    (List.nth ranks 2)

(* Power.pareto answers its points concurrently on the pool; a jobs=1
   and a jobs=2 run must return identical frontiers. *)
let test_pareto_engines_agree () =
  let p = baseline_130nm_small () in
  let _, w = Grid.compute p in
  let p_inf =
    match w with
    | Some w -> Power.of_witness p w
    | None -> Alcotest.fail "baseline unassignable"
  in
  let budgets = List.map (fun f -> f *. p_inf) [ 0.3; 0.6; 1.0 ] in
  let seq = Power.pareto ~jobs:1 p budgets in
  let par = Power.pareto ~jobs:2 p budgets in
  List.iter2
    (fun (a : Grid.power_point) (b : Grid.power_point) ->
      Alcotest.(check bool) "identical point" true
        (a.Grid.pp_budget = b.Grid.pp_budget
        && a.Grid.pp_outcome = b.Grid.pp_outcome
        && a.Grid.pp_power = b.Grid.pp_power))
    seq par

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
          prop_budget_binds_soundly;
          prop_sweep_matches_independent;
          Alcotest.test_case "encode refused" `Quick
            test_powered_tables_refuse_encode;
          Alcotest.test_case "budget validation" `Quick test_pareto_validation;
          Alcotest.test_case "small frontier" `Quick test_pareto_small_frontier;
          Alcotest.test_case "engines agree" `Quick test_pareto_engines_agree;
        ] );
    ]
