(* Tests for the rank algorithms: optimal DP vs exhaustive oracle, greedy
   baseline dominance, monotonicity laws, and the paper-literal DP. *)

open Helpers

module P = Ir_assign.Problem

(* The per-point reference: one query as a one-cell grid, nothing
   shared with any other point. *)
let compute ?max_pareto ?widen_on_overflow p =
  fst (Ir_core.Rank_grid.compute ?max_pareto ?widen_on_overflow p)

(* The boundary search over [p]'s first-rung tables, scanning top-down
   instead of bracketing. *)
let exhaustive p =
  fst (Ir_core.Rank_dp.search_tables ~exhaustive:true
         (Ir_core.Rank_dp.build_tables p))

let test_outcome () =
  let o =
    Ir_core.Outcome.v ~rank_wires:40 ~total_wires:100 ~assignable:true
      ~boundary_bunch:4 ()
  in
  check_close "normalized" 0.4 (Ir_core.Outcome.normalized o);
  Alcotest.check_raises "rank above total"
    (Invalid_argument "Outcome.v: rank exceeds total") (fun () ->
      ignore
        (Ir_core.Outcome.v ~rank_wires:5 ~total_wires:4 ~assignable:true
           ~boundary_bunch:0 ()));
  Alcotest.check_raises "positive rank needs assignability"
    (Invalid_argument "Outcome.v: positive rank requires assignability")
    (fun () ->
      ignore
        (Ir_core.Outcome.v ~rank_wires:1 ~total_wires:4 ~assignable:false
           ~boundary_bunch:0 ()));
  let u = Ir_core.Outcome.unassignable ~total_wires:7 () in
  Alcotest.(check int) "unassignable rank 0" 0 u.rank_wires;
  let s = Format.asprintf "%a" Ir_core.Outcome.pp_human u in
  Alcotest.(check bool) "pp mentions unassignable" true
    (Astring_contains.contains s "unassignable")

(* A hand-checkable instance: roomy die, loose targets; everything meets. *)
let test_dp_all_meet () =
  let design =
    Ir_tech.Design.v ~node:Ir_tech.Node.N130 ~gates:100_000 ~clock:1e8 ()
  in
  let arch = Ir_ia.Arch.make ~design () in
  let bunches =
    Array.init 5 (fun i ->
        { Ir_wld.Dist.length = 1e-4 /. float_of_int (i + 1); count = 2 })
  in
  let p = P.of_bunches ~arch ~bunches () in
  let o = compute p in
  Alcotest.(check int) "all 10 wires meet" 10 o.rank_wires;
  Alcotest.(check bool) "assignable" true o.assignable

let test_dp_zero_budget () =
  (* With zero repeater budget and tight targets, only wires meeting
     unbuffered... which under Eq. (3)'s eta >= 1 never happens with zero
     area.  Rank must be 0 but the instance remains assignable. *)
  let design =
    Ir_tech.Design.v ~node:Ir_tech.Node.N130 ~gates:100_000 ~clock:5e8
      ~repeater_fraction:0.0 ()
  in
  let arch = Ir_ia.Arch.make ~design () in
  let bunches = [| { Ir_wld.Dist.length = 3e-3; count = 4 } |] in
  let p = P.of_bunches ~arch ~bunches () in
  let o = compute p in
  Alcotest.(check bool) "assignable" true o.assignable;
  Alcotest.(check int) "rank 0 without budget" 0 o.rank_wires

let test_dp_unassignable () =
  let design = Ir_tech.Design.v ~node:Ir_tech.Node.N130 ~gates:100 () in
  let arch = Ir_ia.Arch.make ~design () in
  let bunches = [| { Ir_wld.Dist.length = 1e-2; count = 1000 } |] in
  let p = P.of_bunches ~arch ~bunches () in
  let o = compute p in
  Alcotest.(check bool) "not assignable" false o.assignable;
  Alcotest.(check int) "rank 0 (Definition 3)" 0 o.rank_wires

let test_dp_binary_vs_exhaustive () =
  (* The binary search relies on boundary monotonicity; the exhaustive
     scan cross-checks it on the scaled-down baseline. *)
  let p = baseline_130nm_small () in
  let fast = fst (Ir_core.Rank_dp.search_tables (Ir_core.Rank_dp.build_tables p)) in
  let slow = exhaustive p in
  Alcotest.(check int) "same rank" fast.rank_wires slow.rank_wires

let test_greedy_baseline_sane () =
  let p = baseline_130nm_small () in
  let g = Ir_core.Rank_greedy.compute p in
  let d = compute p in
  Alcotest.(check bool) "greedy assignable" true g.assignable;
  Alcotest.(check bool) "greedy <= dp" true (g.rank_wires <= d.rank_wires);
  Alcotest.(check bool) "dp positive on baseline" true (d.rank_wires > 0)

let test_figure2 () =
  let s = Ir_sweep.Figure2.scenario () in
  Alcotest.(check int) "greedy rank 2" 2 s.greedy.rank_wires;
  Alcotest.(check int) "optimal rank 4" 4 s.optimal.rank_wires;
  Alcotest.(check int) "literal DP agrees" 4 s.exact.rank_wires

let test_exact_dp_smoke () =
  (* The literal DP on a small roomy instance finds everything meets. *)
  let design =
    Ir_tech.Design.v ~node:Ir_tech.Node.N130 ~gates:100_000 ~clock:1e8 ()
  in
  let arch = Ir_ia.Arch.make ~design () in
  let bunches =
    Array.init 4 (fun i ->
        { Ir_wld.Dist.length = 1e-4 /. float_of_int (i + 1); count = 1 })
  in
  let p = P.of_bunches ~arch ~bunches () in
  let o = Ir_core.Rank_exact.compute ~r_steps:8 p in
  Alcotest.(check int) "all meet" 4 o.rank_wires

let test_exact_dp_guard () =
  let p = baseline_130nm_small () in
  Alcotest.check_raises "too large"
    (Invalid_argument "Rank_exact.compute: instance too large for the literal DP")
    (fun () -> ignore (Ir_core.Rank_exact.compute p))

let test_threshold_baseline () =
  let p = baseline_130nm_small () in
  let t = Ir_core.Rank_threshold.compute p in
  let dp = compute p in
  Alcotest.(check bool) "threshold <= dp" true
    (t.rank_wires <= dp.rank_wires);
  (* Characteristic lengths exist and are positive for every pair. *)
  for j = 0 to Ir_assign.Problem.n_pairs p - 1 do
    Alcotest.(check bool) "lambda positive" true
      (Ir_core.Rank_threshold.characteristic_length p j > 0.0)
  done;
  Alcotest.check_raises "bad beta"
    (Invalid_argument "Rank_threshold.compute: beta must be > 0") (fun () ->
      ignore (Ir_core.Rank_threshold.compute ~beta:0.0 p))

let prop_threshold_le_dp =
  qtest ~count:80 "threshold assignment never beats the DP"
    Helpers.gen_instance (fun { problem; label } ->
      let dp = compute problem in
      let t = Ir_core.Rank_threshold.compute problem in
      if t.rank_wires > dp.rank_wires then
        QCheck2.Test.fail_reportf "%s: threshold=%d dp=%d" label t.rank_wires
          dp.rank_wires
      else true)

let test_noise_limited_rank () =
  (* A noise limit can only lower the rank; shielded wiring (miller 1)
     restores it because the victim is quiet. *)
  let design = Ir_core.Rank.baseline_design ~gates:40_000 Ir_tech.Node.N130 in
  let arch = Ir_ia.Arch.make ~design () in
  let wld =
    Ir_wld.Davis.generate
      (Ir_wld.Davis.params ~gates:40_000 ())
  in
  let rank ?noise_limit ?materials () =
    let arch = match materials with
      | None -> arch
      | Some m -> Ir_ia.Arch.with_materials arch m
    in
    let p = Ir_assign.Problem.make ?noise_limit ~bunch_size:500 ~arch ~wld () in
    (compute p).Ir_core.Outcome.rank_wires
  in
  let free = rank () in
  let tight = rank ~noise_limit:0.2 () in
  Alcotest.(check bool) "noise limit can only hurt" true (tight <= free);
  let shielded =
    rank ~noise_limit:0.2
      ~materials:(Ir_ia.Materials.v ~miller:1.0 ()) ()
  in
  Alcotest.(check bool) "shielding restores rank under noise limits" true
    (shielded > 0)

let test_assignment_witness () =
  let p = baseline_130nm_small () in
  let a = Ir_core.Assignment.extract p in
  (match Ir_core.Assignment.check p a with
  | Ok () -> ()
  | Error e -> Alcotest.failf "witness invalid: %s" e);
  Alcotest.(check int) "witness rank equals DP rank"
    (compute p).rank_wires a.outcome.rank_wires;
  let util = Ir_core.Assignment.utilization p a in
  Alcotest.(check int) "one utilization entry per pair"
    (Ir_assign.Problem.n_pairs p) (List.length util);
  List.iter
    (fun (j, u) ->
      if u < 0.0 || u > 1.0 +. 1e-9 then
        Alcotest.failf "pair %d utilization %.3f out of range" j u)
    util;
  let rendered = Format.asprintf "%a" (Ir_core.Assignment.pp_human p) a in
  Alcotest.(check bool) "render mentions overflow" true
    (Astring_contains.contains rendered "overflow")

let prop_witness_checks =
  qtest ~count:100 "extracted witnesses validate independently"
    Helpers.gen_instance (fun { problem; label } ->
      let a = Ir_core.Assignment.extract problem in
      match Ir_core.Assignment.check problem a with
      | Ok () -> true
      | Error e -> QCheck2.Test.fail_reportf "%s: %s" label e)

let test_rank_facade () =
  let design = Ir_core.Rank.baseline_design ~gates:40_000 Ir_tech.Node.N130 in
  let o = Ir_core.Rank.of_design ~bunch_size:500 design in
  Alcotest.(check bool) "positive rank" true (o.rank_wires > 0);
  let o_greedy =
    Ir_core.Rank.of_design ~algo:Ir_core.Rank.Greedy ~bunch_size:500 design
  in
  Alcotest.(check bool) "greedy <= dp via facade" true
    (o_greedy.rank_wires <= o.rank_wires)

(* ---- properties ------------------------------------------------------- *)

let prop_dp_equals_brute =
  qtest ~count:150 "optimized DP matches the exhaustive oracle"
    Helpers.gen_instance (fun { problem; label } ->
      let dp = compute problem in
      let brute = Ir_core.Rank_brute.compute problem in
      if dp.rank_wires <> brute.rank_wires
         || dp.assignable <> brute.assignable then
        QCheck2.Test.fail_reportf "%s: dp=%d/%b brute=%d/%b" label
          dp.rank_wires dp.assignable brute.rank_wires brute.assignable
      else true)

let prop_greedy_le_dp =
  qtest ~count:150 "greedy never beats the DP" Helpers.gen_instance
    (fun { problem; label } ->
      let dp = compute problem in
      let g = Ir_core.Rank_greedy.compute problem in
      if g.rank_wires > dp.rank_wires then
        QCheck2.Test.fail_reportf "%s: greedy=%d dp=%d" label g.rank_wires
          dp.rank_wires
      else true)

let prop_exact_le_dp =
  qtest ~count:60 "literal DP never exceeds the optimal DP"
    Helpers.gen_instance (fun { problem; label } ->
      let dp = compute problem in
      let ex = Ir_core.Rank_exact.compute ~r_steps:12 problem in
      if ex.rank_wires > dp.rank_wires then
        QCheck2.Test.fail_reportf "%s: exact=%d dp=%d" label ex.rank_wires
          dp.rank_wires
      else true)

let prop_rank_monotone_in_budget =
  qtest ~count:60 "more repeater budget never lowers the rank"
    Helpers.gen_instance (fun { problem; label } ->
      let arch = P.arch problem in
      let design = arch.Ir_ia.Arch.design in
      let fr = design.Ir_tech.Design.repeater_fraction in
      if fr > 0.85 then true
      else begin
        let richer =
          Ir_ia.Arch.with_design arch
            (Ir_tech.Design.with_repeater_fraction design (fr +. 0.1))
        in
        let bunches =
          Array.init (P.n_bunches problem) (fun b ->
              { Ir_wld.Dist.length = P.bunch_length problem b;
                count = P.bunch_count problem b })
        in
        let p2 = P.of_bunches ~arch:richer ~bunches () in
        let r1 = (compute problem).rank_wires in
        let r2 = (compute p2).rank_wires in
        if r2 < r1 then
          QCheck2.Test.fail_reportf "%s: budget up, rank %d -> %d" label r1 r2
        else true
      end)

let prop_rank_monotone_in_k =
  qtest ~count:60 "lower permittivity never lowers the rank"
    Helpers.gen_instance (fun { problem; label } ->
      let arch = P.arch problem in
      let low_k =
        Ir_ia.Arch.with_materials arch (Ir_ia.Materials.v ~k:2.0 ())
      in
      let bunches =
        Array.init (P.n_bunches problem) (fun b ->
            { Ir_wld.Dist.length = P.bunch_length problem b;
              count = P.bunch_count problem b })
      in
      let p2 = P.of_bunches ~arch:low_k ~bunches () in
      let r1 = (compute problem).rank_wires in
      let r2 = (compute p2).rank_wires in
      if r2 < r1 then
        QCheck2.Test.fail_reportf "%s: k down, rank %d -> %d" label r1 r2
      else true)

let prop_binary_matches_exhaustive =
  (* The issue's satellite check: the binary boundary search rests on the
     monotonicity argument documented in Rank_dp; the exhaustive scan is
     its oracle on random instances (which include the inverted-stack
     regimes the baseline never shows). *)
  qtest ~count:120 "binary boundary search matches the exhaustive scan"
    Helpers.gen_instance (fun { problem; label } ->
      let fast =
        fst
          (Ir_core.Rank_dp.search_tables
             (Ir_core.Rank_dp.build_tables problem))
      in
      let slow = exhaustive problem in
      if
        fast.rank_wires <> slow.rank_wires
        || fast.assignable <> slow.assignable
      then
        QCheck2.Test.fail_reportf "%s: binary=%d/%b exhaustive=%d/%b" label
          fast.rank_wires fast.assignable slow.rank_wires slow.assignable
      else true)

let test_tables_reuse () =
  (* search_tables over prebuilt tables must equal the one-shot search,
     and the tables survive repeated queries (they are immutable). *)
  let p = baseline_130nm_small () in
  let tables = Ir_core.Rank_dp.build_tables p in
  let via_tables = fst (Ir_core.Rank_dp.search_tables tables) in
  let direct = compute p in
  Alcotest.(check int) "same rank" direct.rank_wires via_tables.rank_wires;
  let again = fst (Ir_core.Rank_dp.search_tables ~exhaustive:true tables) in
  Alcotest.(check int) "repeat query stable" direct.rank_wires
    again.rank_wires

(* ---- Pareto overflow / exactness ------------------------------------- *)

(* Adversarial instances found by randomized search over the same space as
   Helpers.gen_instance (plus multi-wire bunches): the geometry, clock and
   length literals below are the exact doubles the search reported, frozen
   so the tests stay deterministic.  [adversarial_problem_on] rebuilds
   the instance the way the generator does: lengths sorted descending,
   then zipped with the per-bunch counts, on one local pair,
   [semi_global_pairs] semi-global pairs and one global pair.
   [adversarial_problem] is the three-pair stack. *)
let adversarial_problem_on ~semi_global_pairs ~local ~semi ~global ~gates
    ~clock ~fraction ~counts ~lengths_mm =
  let geometry (width, spacing, thickness, via_width) =
    Ir_tech.Geometry.v ~width ~spacing ~thickness ~via_width ()
  in
  let stack =
    {
      Ir_tech.Stack.node =
        Ir_tech.Node.Custom { name = "adversarial"; feature = 130e-9 };
      local = geometry local;
      semi_global = geometry semi;
      global = geometry global;
      mx_layers = 5;
      mt_layers = 1;
    }
  in
  let design =
    Ir_tech.Design.v
      ~node:(Ir_tech.Node.Custom { name = "adversarial"; feature = 130e-9 })
      ~gates ~clock ~repeater_fraction:fraction ()
  in
  let structure =
    { Ir_ia.Arch.local_pairs = 1; semi_global_pairs; global_pairs = 1 }
  in
  let arch = Ir_ia.Arch.make ~structure ~stack ~design () in
  let sorted = List.sort (fun a b -> Float.compare b a) lengths_mm in
  let bunches =
    Array.of_list
      (List.map2
         (fun l c -> { Ir_wld.Dist.length = Ir_phys.Units.mm l; count = c })
         sorted counts)
  in
  P.of_bunches ~arch ~bunches ()

let adversarial_problem = adversarial_problem_on ~semi_global_pairs:1

(* Its phase-A Pareto front exceeds the default width 8 in a row the
   boundary search reads (rows 0..m-1).  Every answer meets all 16 wires
   and the repeater budget never binds, so a build at any larger
   fraction is this same build. *)
let overflowing_problem () =
  adversarial_problem
    ~local:
      ( 3.2710737743480174e-07, 3.1036793894029358e-07,
        2.3984560924689737e-07, 3.3755116422125288e-07 )
    ~semi:
      ( 1.0136705472056237e-07, 2.0523928087902579e-07,
        1.8544696715070806e-07, 3.1857114530548058e-07 )
    ~global:
      ( 2.8359001307995769e-07, 1.5023855021209899e-07,
        9.0372595561868414e-07, 1.5875668052870791e-07 )
    ~gates:2240 ~clock:3.577188693495666e9 ~fraction:0.68821488370648509
    ~counts:[ 1; 2; 2; 2; 1; 2; 1; 1; 2; 1; 1 ]
    ~lengths_mm:
      [ 0.21716978712059543; 1.3542600665956506; 1.5573093881031992;
        2.2052096585286511; 3.4123084404807487; 1.3200679781203235;
        1.3771056216937547; 2.7351594467566236; 1.1956649488675564;
        2.5778005606618897; 1.1327859036310073 ]

(* Its width-8 front overflowed only in row m, the all-pairs-prefix row
   no query reads and the build no longer fills. *)
let row_m_overflow_problem () =
  adversarial_problem
    ~local:
      ( 5.3095550389360423e-07, 3.0831268735062441e-07,
        7.1844591095434606e-07, 1.0005558635294242e-07 )
    ~semi:
      ( 1.598659805087945e-07, 1.3802776320216007e-07,
        2.1555315676358843e-07, 1.0241727322044422e-07 )
    ~global:
      ( 5.4754699139350477e-07, 2.6784899853456654e-07,
        1.0539778775924268e-06, 1.7812977071127073e-07 )
    ~gates:2432 ~clock:3.9872599080504165e9 ~fraction:0.74686733954949214
    ~counts:[ 1; 2; 2; 1; 1; 2; 2; 1; 1; 1; 2 ]
    ~lengths_mm:
      [ 3.6520963231125698; 0.98958431651449208; 3.9076515829026501;
        1.6763933135456763; 2.5346613973237861; 2.9093155040911229;
        0.81223700481588268; 0.95906533186011544; 2.8563330453106883;
        0.3352962962129703; 3.0536133535762913 ]

(* Four pairs, so phase A expands row 2, whose cells hold up to eight
   states: at width 8 the dominance pre-check places 323 candidates of
   its translated source chains by the forward walk, and that front
   truncates in a row the search reads.  The three-pair instances around it never walk:
   every cell they expand holds one state. *)
let walking_problem () =
  adversarial_problem_on ~semi_global_pairs:2
    ~local:
      ( 4.8990543226030685e-07, 4.8556755715309295e-07,
        1.8751473708683241e-07, 3.5596947190824422e-07 )
    ~semi:
      ( 1.044520372337587e-07, 1.3144748690281691e-07,
        1.977565075258717e-07, 1.3588034601968169e-07 )
    ~global:
      ( 2.5830994172633693e-07, 1.8502974659981488e-07,
        1.0156025370891446e-06, 3.6759896510992517e-07 )
    ~gates:2496 ~clock:3817055294.329402 ~fraction:0.047700761239371475
    ~counts:[ 1; 2; 1; 2; 1; 2; 2; 2; 2; 2; 2; 1 ]
    ~lengths_mm:
      [ 2.918452204324931; 1.5695680162139916; 2.1365094146644279;
        3.6737327470399164; 3.6736074458307231; 3.3961073840541034;
        3.334790703130813; 1.0227961412509845; 1.8566398819874819;
        0.95399995694749062; 0.39954516067682944; 3.2347993621540758 ]

(* A width-1 front already loses the state behind the true optimum. *)
let rank_changing_problem () =
  adversarial_problem
    ~local:
      ( 5.3007315779987603e-07, 5.8166095207083609e-07,
        8.8424995898149244e-07, 2.5527989868773304e-07 )
    ~semi:
      ( 2.3596112983832349e-07, 5.1950525291214761e-07,
        1.0498093669450101e-06, 3.0977913655409793e-07 )
    ~global:
      ( 1.7463812613679033e-07, 2.7922280425742262e-07,
        2.0443424792061323e-07, 2.5232221581787872e-07 )
    ~gates:1088 ~clock:3.9995243316415632e9 ~fraction:0.012119371512830416
    ~counts:[ 2; 1; 2; 1; 1; 2; 2; 2; 2; 2; 1; 1 ]
    ~lengths_mm:
      [ 3.3418262525457809; 2.8134743144834737; 3.1462396277935394;
        3.3033780217361279; 0.077756138535907043; 1.769624564453558;
        1.0026169337562272; 1.6336512198251629; 1.9652216164557261;
        1.0192798875341027; 2.5463811372616458; 0.43069454568339277 ]

let test_pareto_overflow_widens () =
  let p = overflowing_problem () in
  let tables = Ir_core.Rank_dp.build_tables ~max_pareto:8 p in
  Alcotest.(check bool) "front exceeds default width 8" true
    (Ir_core.Rank_dp.table_truncations tables > 0);
  let narrow =
    compute ~max_pareto:8 ~widen_on_overflow:false p
  in
  Alcotest.(check bool) "unwidened result flagged inexact" false narrow.exact;
  let widen_retries_before =
    counter_in (Ir_obs.snapshot ()) "rank_dp/widen_retries"
  in
  let wide = compute ~max_pareto:8 p in
  let widen_retries_after =
    counter_in (Ir_obs.snapshot ()) "rank_dp/widen_retries"
  in
  Alcotest.(check bool) "default search widened" true
    (widen_retries_after > widen_retries_before);
  Alcotest.(check bool) "widened result exact" true wide.exact;
  let brute = Ir_core.Rank_brute.compute p in
  Alcotest.(check int) "widened rank matches the exhaustive oracle"
    brute.rank_wires wide.rank_wires;
  Alcotest.(check bool) "lower bound stays a lower bound" true
    (narrow.rank_wires <= wide.rank_wires)

(* The build fills rows 0..m-1 only, so an overflow confined to row m is
   gone: no truncation, no widen rung, and the width-8 answer is exact. *)
let test_row_m_overflow_gone () =
  let p = row_m_overflow_problem () in
  Alcotest.(check int) "no truncation at width 8" 0
    (Ir_core.Rank_dp.table_truncations
       (Ir_core.Rank_dp.build_tables ~max_pareto:8 p));
  Ir_obs.reset ();
  let o = compute ~max_pareto:8 p in
  Alcotest.(check int) "no widen retry" 0
    (counter_in (Ir_obs.snapshot ()) "rank_dp/widen_retries");
  Alcotest.(check bool) "exact" true o.exact;
  Alcotest.(check int) "rank matches the exhaustive oracle"
    (Ir_core.Rank_brute.compute p).rank_wires o.rank_wires

(* The exact flag rests on truncations in the read rows alone: at widths
   small enough to truncate often, a truncation-free build must answer
   the exhaustive oracle's rank and say it is exact. *)
let prop_untruncated_is_exact =
  qtest ~count:150 "truncation-free tables answer the oracle, exact"
    QCheck2.Gen.(pair Helpers.gen_instance (int_range 1 3))
    (fun ({ problem; label }, width) ->
      let tables = Ir_core.Rank_dp.build_tables ~max_pareto:width problem in
      if Ir_core.Rank_dp.table_truncations tables > 0 then true
      else begin
        let o, _ = Ir_core.Rank_dp.search_tables tables in
        let brute = Ir_core.Rank_brute.compute problem in
        if not o.exact then
          QCheck2.Test.fail_reportf "%s width=%d: not flagged exact" label
            width;
        if o.rank_wires <> brute.rank_wires then
          QCheck2.Test.fail_reportf "%s width=%d: rank %d, oracle %d" label
            width o.rank_wires brute.rank_wires;
        true
      end)

let test_pareto_truncation_changes_rank () =
  let p = rank_changing_problem () in
  let brute = Ir_core.Rank_brute.compute p in
  (* The pre-fix behaviour: truncate silently and report the resulting
     lower bound as if it were the rank. *)
  let narrow =
    compute ~max_pareto:1 ~widen_on_overflow:false p
  in
  Alcotest.(check bool) "truncation changes the reported rank" true
    (narrow.rank_wires < brute.rank_wires);
  Alcotest.(check bool) "and is flagged inexact" false narrow.exact;
  let marker = Format.asprintf "%a" Ir_core.Outcome.pp_human narrow in
  Alcotest.(check bool) "pp flags the lower bound" true
    (Astring_contains.contains marker "pareto-truncated");
  (* The fixed default: widening from the same starting width recovers
     the brute-force rank.  The convergence-gated ladder may stop before
     it can prove exactness, but it must never over-claim: if the flag
     says exact, the value must be the oracle's. *)
  let widened = compute ~max_pareto:1 p in
  Alcotest.(check int) "widening recovers the exact rank" brute.rank_wires
    widened.rank_wires;
  Alcotest.(check bool) "flag never over-claims" true
    ((not widened.exact) || widened.rank_wires = brute.rank_wires);
  (* At the default width the instance does not truncate at all, so the
     default configuration reports it exact. *)
  let dflt = compute p in
  Alcotest.(check int) "default width is exact here" brute.rank_wires
    dflt.rank_wires;
  Alcotest.(check bool) "and says so" true dflt.exact

(* ---- flat front vs the list-based reference --------------------------- *)

module Front = Ir_core.Front

(* The list-based Pareto insert the flat kernel replaced, kept verbatim
   (modulo field names) as the reference semantics the differential
   properties below compare against: surviving states, their
   ascending-area order, the dominated / truncation tallies, and the
   splits history must all be identical. *)
type relt = { r_area : float; r_count : int; r_splits : int list }

type rstats = {
  mutable r_inserts : int;
  mutable r_dominated : int;
  mutable r_truncations : int;
  mutable r_screened : int;
}

let rdominates a b = a.r_area <= b.r_area && a.r_count <= b.r_count

let rinsert ~width ~stats set e =
  stats.r_inserts <- stats.r_inserts + 1;
  if List.exists (fun x -> rdominates x e) set then begin
    stats.r_dominated <- stats.r_dominated + 1;
    set
  end
  else
    let survivors = List.filter (fun x -> not (rdominates e x)) set in
    let merged =
      List.sort (fun a b -> Float.compare a.r_area b.r_area) (e :: survivors)
    in
    let len = List.length merged in
    if len <= width then merged
    else begin
      stats.r_truncations <- stats.r_truncations + (len - width);
      let arr = Array.of_list merged in
      Array.to_list (Array.sub arr 0 (width - 1)) @ [ arr.(len - 1) ]
    end

(* One front cell checked element-by-element against its reference list;
   [r_splits] is most-recent-first, {!Front.splits} returns top-down. *)
let check_cell_equal ~label front cell reference =
  let len = Front.length front cell in
  if len <> List.length reference then
    QCheck2.Test.fail_reportf "%s: cell %d length front=%d ref=%d" label cell
      len (List.length reference);
  List.iteri
    (fun k r ->
      let a = Front.area front cell k and c = Front.count front cell k in
      if a <> r.r_area || c <> r.r_count then
        QCheck2.Test.fail_reportf
          "%s: cell %d elt %d front=(%.17g,%d) ref=(%.17g,%d)" label cell k a
          c r.r_area r.r_count;
      let splits = Front.splits front (Front.state front cell k) in
      if splits <> List.rev r.r_splits then
        QCheck2.Test.fail_reportf "%s: cell %d elt %d splits differ" label
          cell k)
    reference;
  true

let check_stats_equal ~label front stats =
  if
    Front.inserts front <> stats.r_inserts
    || Front.dominated front <> stats.r_dominated
    || Front.truncations front <> stats.r_truncations
  then
    QCheck2.Test.fail_reportf
      "%s: stats front=(%d,%d,%d) ref=(%d,%d,%d)" label
      (Front.inserts front) (Front.dominated front)
      (Front.truncations front) stats.r_inserts stats.r_dominated
      stats.r_truncations
  else true

(* Random insert sequences with deliberately tiny area/count alphabets so
   exact ties (equal area, equal count, both directions of dominance) are
   common.  Checked after every insert, not only at the end. *)
let gen_insert_seq =
  let open QCheck2.Gen in
  let* width = int_range 1 8 in
  let* ops =
    list_size (int_range 1 60)
      (pair (map float_of_int (int_range 0 9)) (int_range 0 9))
  in
  return (width, ops)

let prop_front_insert_matches_reference =
  qtest ~count:500 "flat front insert matches the list reference"
    gen_insert_seq (fun (width, ops) ->
      let label = Printf.sprintf "width=%d n_ops=%d" width (List.length ops) in
      let stats =
        { r_inserts = 0; r_dominated = 0; r_truncations = 0; r_screened = 0 }
      in
      let front = Front.create ~cells:1 ~width in
      let reference = ref [] in
      List.iteri
        (fun k (area, count) ->
          reference :=
            rinsert ~width ~stats !reference
              { r_area = area; r_count = count; r_splits = [ k ] };
          Front.insert front 0 ~area ~count ~split:k ~parent:(-1);
          ignore (check_cell_equal ~label front 0 !reference))
        ops;
      check_stats_equal ~label front stats)

(* A store of many cells: [roots] seeded root cells, then inserts into
   the other cells, each parented to a root (roots are never inserted
   into, so a parent is never evicted).  The cells are drawn at random,
   so first inserts interleave: slices are handed out out of cell order
   and the planes grow in mid-stream. *)
let gen_multi_cell_stream =
  let open QCheck2.Gen in
  let* width = int_range 1 8 in
  let* cells = int_range 2 64 in
  let* roots = int_range 1 (min 4 (cells - 1)) in
  let* ops =
    list_size (int_range 1 200)
      (quad
         (int_range roots (cells - 1))
         (map float_of_int (int_range 0 9))
         (int_range 0 9) (int_bound (roots - 1)))
  in
  return (width, cells, roots, ops)

(* The store [gen_multi_cell_stream] describes, with its reference
   lists; [after] runs after every insert, given its index and cell. *)
let multi_cell_store ?(after = fun _ _ _ _ _ -> ()) (width, cells, roots, ops)
    =
  let stats =
    { r_inserts = 0; r_dominated = 0; r_truncations = 0; r_screened = 0 }
  in
  let front = Front.create ~cells ~width in
  let reference = Array.make cells [] in
  for c = 0 to roots - 1 do
    Front.seed front c ~area:0.0 ~count:c;
    reference.(c) <- [ { r_area = 0.0; r_count = c; r_splits = [] } ]
  done;
  List.iteri
    (fun k (cell, area, count, root) ->
      reference.(cell) <-
        rinsert ~width ~stats reference.(cell)
          { r_area = area; r_count = count; r_splits = [ k ] };
      Front.insert front cell ~area ~count ~split:k
        ~parent:(Front.state front root 0);
      after front reference stats k cell)
    ops;
  (front, reference, stats)

(* Every cell against its reference list and the tallies against the
   reference's, after every insert.  Slices go to cells in the order of
   their first state, one per non-empty cell, and none to an empty one.
   The run fails if no stream ever moved the planes, which is what makes
   a stale view show. *)
let prop_front_multi_cell_matches_reference =
  let moved = ref 0 in
  let name, speed, run =
    qtest ~count:300 "sparse store: interleaved cells match the list reference"
      gen_multi_cell_stream (fun ((width, cells, roots, ops) as stream) ->
        let label =
          Printf.sprintf "width=%d cells=%d roots=%d n_ops=%d" width cells
            roots (List.length ops)
        in
        (* Cells in the order they got their first state. *)
        let order = ref (List.init roots Fun.id) in
        let planes = ref [||] in
        let after front reference stats k cell =
          if not (List.mem cell !order) then order := !order @ [ cell ];
          (* Insert 0 sees the planes the roots' slices came in. *)
          if k > 0 && Front.raw_area front != !planes then incr moved;
          planes := Front.raw_area front;
          Array.iteri
            (fun c r ->
              ignore (check_cell_equal ~label front c r);
              if r = [] && Front.base front c <> -1 then
                QCheck2.Test.fail_reportf "%s: empty cell %d has a slice"
                  label c)
            reference;
          ignore (check_stats_equal ~label front stats);
          if Front.slices front <> List.length !order then
            QCheck2.Test.fail_reportf "%s: %d slices for %d non-empty cells"
              label (Front.slices front) (List.length !order);
          let bases = List.map (Front.base front) !order in
          if List.sort_uniq compare bases <> bases then
            QCheck2.Test.fail_reportf
              "%s: slices not handed out in first-state order" label
        in
        ignore (multi_cell_store ~after stream);
        true)
  in
  ( name,
    speed,
    fun () ->
      moved := 0;
      run ();
      if !moved = 0 then Alcotest.fail "no stream grew the planes" )

(* [Front.restore] of a random store, fed the store's live states in
   canonical order (cells in order, each area-ascending, parents as
   canonical numbers), equals the store cell by cell, splits chains
   included, with one slice per non-empty cell. *)
let prop_front_restore_round_trip =
  qtest ~count:300 "sparse store: restore equals the store cell by cell"
    gen_multi_cell_stream (fun ((width, cells, _, _) as stream) ->
      let front, reference, _ = multi_cell_store stream in
      let len = Array.init cells (Front.length front) in
      (* Canonical order: (cell, element) pairs, cells in order. *)
      let states =
        Array.of_list
          (List.concat
             (List.init cells (fun c -> List.init len.(c) (fun k -> (c, k)))))
      in
      let id (c, k) = Front.state front c k in
      let number = Hashtbl.create 64 in
      Array.iteri (fun s ck -> Hashtbl.replace number (id ck) s) states;
      let restored =
        Front.restore ~width ~len
          ~area:(Array.map (fun (c, k) -> Front.area front c k) states)
          ~count:(Array.map (fun (c, k) -> Front.count front c k) states)
          ~split:(Array.map (fun ck -> Front.split front (id ck)) states)
          ~parent:
            (Array.map
               (fun ck ->
                 let p = Front.parent front (id ck) in
                 if p < 0 then -1 else Hashtbl.find number p)
               states)
      in
      let label = Printf.sprintf "width=%d cells=%d" width cells in
      Array.iteri
        (fun c r -> ignore (check_cell_equal ~label restored c r))
        reference;
      let filled = Array.fold_left (fun k l -> if l > 0 then k + 1 else k) 0 len in
      if Front.slices restored <> filled then
        QCheck2.Test.fail_reportf "%s: %d slices for %d non-empty cells" label
          (Front.slices restored) filled
      else true)

(* The builder's per-cell capacity screen, restated from its definition:
   cell (j, i) is screened when bunches [i..n) cannot fit on pairs
   [j..m) even with no repeater above, by the greedy-fill counting
   screen. *)
let cell_screened problem j i =
  let w = P.wires_before problem i in
  Ir_assign.Greedy_fill.fast_reject problem
    (Ir_assign.Greedy_fill.context ~wires_above_top:w ~wires_above_below:w
       ~from_bunch:i ~top_pair:j ())

(* Replays the phase-A build loop of [Rank_dp.build_tables] — the same
   root screen, per-cell screen, iteration order, prune conditions and
   insert sequence — into {e both} a reference list matrix and a
   [Front], then requires every cell, every splits chain and all three
   tallies to agree.  Parent ids are read back from the front as the
   build goes, so this also pins the arena wiring.  [~screen:false]
   replays the build without the per-cell screen: the reference the
   screen's soundness property compares against. *)
let mirror_build ?(screen = true) ~width problem =
  let n = P.n_bunches problem and m = P.n_pairs problem in
  let cap = P.capacity problem and budget = P.budget problem in
  let stats =
    { r_inserts = 0; r_dominated = 0; r_truncations = 0; r_screened = 0 }
  in
  let dp = Array.make_matrix m (n + 1) [] in
  let front = Front.create ~cells:(m * (n + 1)) ~width in
  let cell j i = (j * (n + 1)) + i in
  (* The builder's Definition-3 screen: an instance that does not fit
     ignoring delay gets no root state, so no level offers a candidate. *)
  if
    Ir_assign.Greedy_fill.fits problem
      (Ir_assign.Greedy_fill.context ~from_bunch:0 ~top_pair:0 ())
  then begin
    dp.(0).(0) <- [ { r_area = 0.0; r_count = 0; r_splits = [] } ];
    Front.seed front (cell 0 0) ~area:0.0 ~count:0
  end;
  (* Rows 0..m-1, the rows the search reads: level m - 2 is the last. *)
  for j = 0 to m - 2 do
    for i = 0 to n do
      match dp.(j).(i) with
      | [] -> ()
      | elts ->
          let src = cell j i in
          let parents =
            Array.init (List.length elts) (Front.state front src)
          in
          let ins dst ~split k (e : relt) ~d_area ~d_count =
            dp.(j + 1).(dst) <-
              rinsert ~width ~stats dp.(j + 1).(dst)
                {
                  r_area = e.r_area +. d_area;
                  r_count = e.r_count + d_count;
                  r_splits = split :: e.r_splits;
                };
            Front.insert front
              (cell (j + 1) dst)
              ~area:(e.r_area +. d_area)
              ~count:(e.r_count + d_count)
              ~split ~parent:parents.(k)
          in
          (* The builder's skip: a screened destination gets no candidate,
             decided after the [Break] tests and counted once per source
             cell. *)
          let offer dst insert =
            if screen && cell_screened problem (j + 1) dst then
              stats.r_screened <- stats.r_screened + 1
            else insert ()
          in
          let wires_above = P.wires_before problem i in
          let min_area =
            List.fold_left
              (fun acc e -> Float.min acc e.r_area)
              infinity elts
          in
          let exception Break in
          (try
             for i2 = i to n do
               if i2 = i then
                 (* Empty interval: pair j left unused. *)
                 offer i (fun () ->
                     List.iteri
                       (fun k e -> ins i ~split:i k e ~d_area:0.0 ~d_count:0)
                       elts)
               else
                 match P.meeting_cost problem ~pair:j ~lo:i ~hi:i2 with
                 | None -> raise Break
                 | Some (d_area, d_count) ->
                     if min_area +. d_area > budget then raise Break;
                     let routing =
                       P.interval_area problem ~pair:j ~lo:i ~hi:i2
                     in
                     if routing > cap then raise Break;
                     offer i2 (fun () ->
                         List.iteri
                           (fun k e ->
                             let blocked =
                               P.blocked problem ~pair:j ~wires_above
                                 ~reps_above:e.r_count
                             in
                             if
                               e.r_area +. d_area <= budget
                               && routing +. blocked <= cap
                             then ins i2 ~split:i2 k e ~d_area ~d_count)
                           elts)
             done
           with Break -> ())
    done
  done;
  (dp, front, stats, cell)

let check_mirror ~label ~width problem =
  let dp, front, stats, cell = mirror_build ~width problem in
  let n = P.n_bunches problem and m = P.n_pairs problem in
  for j = 0 to m - 1 do
    for i = 0 to n do
      ignore (check_cell_equal ~label front (cell j i) dp.(j).(i))
    done
  done;
  ignore (check_stats_equal ~label front stats);
  (* The tallies must also match the real kernel's build — same loop,
     same sequence, so the real [build_tables] sees the same overflow and
     does the same work: every candidate the mirror offers counts as one
     insert, and every one it rejects as one dominated drop, whether the
     kernel's pre-check or [Front.insert] made the call.  A pre-check
     that mis-places a candidate fails here by count even where the
     front happens to come out right. *)
  let inserts = Ir_obs.counter "rank_dp/pareto_inserts" in
  let dominated = Ir_obs.counter "rank_dp/pareto_dominated" in
  let screened = Ir_obs.counter "rank_dp/cells_screened" in
  let inserts0 = Ir_obs.value inserts and dominated0 = Ir_obs.value dominated in
  let screened0 = Ir_obs.value screened in
  let tables = Ir_core.Rank_dp.build_tables ~max_pareto:width problem in
  let d_inserts = Ir_obs.value inserts - inserts0 in
  let d_dominated = Ir_obs.value dominated - dominated0 in
  let d_screened = Ir_obs.value screened - screened0 in
  if Ir_core.Rank_dp.table_truncations tables <> stats.r_truncations then
    QCheck2.Test.fail_reportf "%s: build_tables truncations %d <> mirror %d"
      label
      (Ir_core.Rank_dp.table_truncations tables)
      stats.r_truncations
  else if d_inserts <> stats.r_inserts || d_dominated <> stats.r_dominated
  then
    QCheck2.Test.fail_reportf
      "%s: build_tables (inserts, dominated) (%d,%d) <> mirror (%d,%d)" label
      d_inserts d_dominated stats.r_inserts stats.r_dominated
  else if d_screened <> stats.r_screened then
    (* The skip is counted where the [i2] loop reaches it, so a screen
       tested before the [Break] tests counts more. *)
    QCheck2.Test.fail_reportf "%s: build_tables cells screened %d <> mirror %d"
      label d_screened stats.r_screened
  else true

let prop_front_mirror_build =
  qtest ~count:80 "mirrored DP build: flat front equals reference lists"
    Helpers.gen_instance (fun { problem; label } ->
      check_mirror ~label:(label ^ " width=8") ~width:8 problem
      && check_mirror ~label:(label ^ " width=1") ~width:1 problem)

(* The same mirror on four pairs, the smallest stack whose build expands
   multi-state cells, so the pre-check's forward walk runs. *)
let prop_front_mirror_build_4pair =
  qtest ~count:150 "mirrored 4-pair DP build: walked chains equal reference"
    Helpers.gen_instance_4pair (fun { problem; label } ->
      check_mirror ~label:(label ^ " width=8") ~width:8 problem
      && check_mirror ~label:(label ^ " width=3") ~width:3 problem)

(* The mirror at the full repeater budget (fraction 1.0), where the
   transition loops run longest and the kernel's range skip counts whole
   ranges of dominated candidates without placing them: fronts and
   tallies must still be what the walk one candidate at a time gives.
   A run in which the skip never fired would prove nothing, so the case
   fails if [rank_dp/transitions_skipped] did not move. *)
let prop_front_mirror_full_budget =
  let name, speed, run =
    qtest ~count:150 "mirrored full-budget DP build: range skip counts exact"
      QCheck2.Gen.(pair Helpers.gen_instance Helpers.gen_instance_4pair)
      (fun ({ problem = p; label = l }, { problem = p4; label = l4 }) ->
        List.for_all
          (fun width ->
            let w = Printf.sprintf " fraction=1 width=%d" width in
            check_mirror ~label:(l ^ w) ~width (P.with_repeater_fraction p 1.0)
            && check_mirror ~label:(l4 ^ w) ~width
                 (P.with_repeater_fraction p4 1.0))
          [ 1; 3; 8 ])
  in
  let skipped () =
    counter_in (Ir_obs.snapshot ()) "rank_dp/transitions_skipped"
  in
  ( name,
    speed,
    fun () ->
      let before = skipped () in
      run ();
      if skipped () = before then
        Alcotest.fail "the range skip never fired over the whole run" )

(* Does the reference state [e] of cell (j, i) complete with boundary
   [c]?  The witness test itself — bunches [i..c) meet on pair j, the
   suffix passes [Greedy_fill.fits] — without the repeater budget, since
   the screen claims soundness at every budget. *)
let completes problem ~j ~i ~c (e : relt) =
  P.meeting_feasible problem ~pair:j ~lo:i ~hi:c
  &&
  let used = P.interval_area problem ~pair:j ~lo:i ~hi:c in
  let wires_i = P.wires_before problem i in
  used
  +. P.blocked problem ~pair:j ~wires_above:wires_i ~reps_above:e.r_count
  <= P.capacity problem
  && Ir_assign.Greedy_fill.fits problem
       (Ir_assign.Greedy_fill.context ~top_pair_used:used
          ~wires_above_top:wires_i ~reps_above_top:e.r_count
          ~wires_above_below:(P.wires_before problem c)
          ~reps_above_below:
            (e.r_count + P.meeting_count problem ~pair:j ~lo:i ~hi:c)
          ~from_bunch:c ~top_pair:j ())

(* The per-cell screen against the unscreened reference build: every
   kept cell of the real tables equals the reference's, every screened
   cell is empty, and no state the reference holds in a screened cell
   completes at any boundary. *)
let check_screen ~label ~width problem =
  let dp, _, _, _ = mirror_build ~screen:false ~width problem in
  let front =
    Ir_core.Rank_dp.front
      (Ir_core.Rank_dp.build_tables ~max_pareto:width problem)
  in
  let n = P.n_bunches problem and m = P.n_pairs problem in
  for j = 0 to m - 1 do
    for i = 0 to n do
      let cell = (j * (n + 1)) + i in
      if not (cell_screened problem j i) then
        ignore (check_cell_equal ~label front cell dp.(j).(i))
      else begin
        if Front.length front cell > 0 then
          QCheck2.Test.fail_reportf "%s: screened cell (%d, %d) holds %d states"
            label j i (Front.length front cell);
        List.iter
          (fun e ->
            for c = i to n do
              if completes problem ~j ~i ~c e then
                QCheck2.Test.fail_reportf
                  "%s: screened cell (%d, %d) state (%.17g, %d) completes at \
                   c = %d"
                  label j i e.r_area e.r_count c
            done)
          dp.(j).(i)
      end
    done
  done;
  true

let prop_screen_sound =
  qtest ~count:100 "per-cell screen: kept cells unchanged, screened unfit"
    QCheck2.Gen.(pair Helpers.gen_instance Helpers.gen_instance_4pair)
    (fun ({ problem = p; label = l }, { problem = p4; label = l4 }) ->
      List.for_all
        (fun width ->
          let w = Printf.sprintf " width=%d" width in
          check_screen ~label:(l ^ w) ~width p
          && check_screen ~label:(l4 ^ w) ~width p4)
        [ 1; 3; 8 ])

let test_front_mirror_adversarial () =
  (* The frozen instances: one overflowing the default width 8, one where
     a width-1 front drops the optimum-bearing state. *)
  let p8 = overflowing_problem () in
  ignore (check_mirror ~label:"overflowing width=8" ~width:8 p8);
  let _, _, stats, _ = mirror_build ~width:8 p8 in
  Alcotest.(check bool) "overflowing instance truncates at width 8" true
    (stats.r_truncations > 0);
  let pm = row_m_overflow_problem () in
  ignore (check_mirror ~label:"row-m overflow width=8" ~width:8 pm);
  let _, _, stats, _ = mirror_build ~width:8 pm in
  Alcotest.(check int) "row-m overflow truncates nothing in rows 0..m-1" 0
    stats.r_truncations;
  let p1 = rank_changing_problem () in
  ignore (check_mirror ~label:"rank-changing width=1" ~width:1 p1);
  ignore (check_mirror ~label:"rank-changing width=8" ~width:8 p1);
  let pw = walking_problem () in
  ignore (check_mirror ~label:"walking width=8" ~width:8 pw);
  ignore (check_mirror ~label:"walking width=16" ~width:16 pw);
  let _, _, stats, _ = mirror_build ~width:8 pw in
  Alcotest.(check bool) "walking instance truncates at width 8" true
    (stats.r_truncations > 0)

(* A transition loop that breaks inside a run of screened destinations:
   from some source cell the loop reaches a screened destination [d],
   its first breaking destination [x > d] is screened too, and a kept
   cell follows the run.  The kernel jumps such a run in one step; here
   the jump's test at the run's end fails, and the bisection must land
   on [x] for [rank_dp/cells_screened] to match the walk one destination
   at a time that [check_mirror] replays. *)
let screened_break_problem () =
  adversarial_problem
    ~local:
      ( 2.5613521922043713e-07, 2.3086091449142916e-07,
        2.5206946001123976e-07, 2.3743567412130686e-07 )
    ~semi:
      ( 3.6948255865693568e-07, 5.4933899517787509e-07,
        4.0459443193739398e-07, 2.9354473345824428e-07 )
    ~global:
      ( 1.589480884752438e-07, 3.5877195699121408e-07,
        1.0897950633642383e-06, 2.6889707427496532e-07 )
    ~gates:576 ~clock:1048627414.1616396 ~fraction:0.10974801415187181
    ~counts:[ 1; 1; 2; 2; 1; 1; 2; 2 ]
    ~lengths_mm:
      [ 2.3083104815543765; 1.7532204566432323; 3.1146033827116306;
        0.95294935014967397; 2.7133489028474957; 1.7613046239346755;
        3.2471438537682946; 0.48909174527211668 ]

(* The source cells of a [width] build whose transition loop breaks at a
   screened destination strictly inside a screened run that a kept cell
   ends: the cells on which the kernel's jump must bisect. *)
let breaks_inside_screened_runs ~width problem =
  let n = P.n_bunches problem and m = P.n_pairs problem in
  let cap = P.capacity problem and budget = P.budget problem in
  let front =
    Ir_core.Rank_dp.front
      (Ir_core.Rank_dp.build_tables ~max_pareto:width problem)
  in
  let found = ref 0 in
  for j = 0 to m - 2 do
    for i = 0 to n do
      let src = (j * (n + 1)) + i in
      let len = Front.length front src in
      if len > 0 then begin
        let min_area = ref infinity in
        for k = 0 to len - 1 do
          min_area := Float.min !min_area (Front.area front src k)
        done;
        let breaks x =
          (not (P.meeting_feasible problem ~pair:j ~lo:i ~hi:x))
          || !min_area +. P.meeting_area problem ~pair:j ~lo:i ~hi:x > budget
          || P.interval_area problem ~pair:j ~lo:i ~hi:x > cap
        in
        let x = ref (i + 1) in
        while !x <= n && not (breaks !x) do
          incr x
        done;
        let x = !x in
        let screened = cell_screened problem (j + 1) in
        if x <= n && x - 1 > i && screened x && screened (x - 1) then begin
          let t = ref x in
          while !t <= n && screened !t do
            incr t
          done;
          if !t <= n then incr found
        end
      end
    done
  done;
  !found

let test_jump_break_inside_run () =
  let p = screened_break_problem () in
  Alcotest.(check bool) "a loop breaks inside a screened run" true
    (breaks_inside_screened_runs ~width:8 p > 0);
  ignore (check_mirror ~label:"screened-run break width=8" ~width:8 p);
  ignore (check_mirror ~label:"screened-run break width=1" ~width:1 p)

(* Three frozen instances for the range skip's rare paths, each found by
   randomized search as one of up to a few hundred thousand.  In the
   first, a tight budget makes a covered state's own filters fail before
   the end of the champion's range, so the kernel bisects that state to
   its own last passing destination; counting it to the range's end adds
   inserts the walk never makes.  In the second, a narrow front
   truncates, and a range skip after that would drop a candidate whose
   dominator the truncation evicted.  In the third, a source cell's
   [Break] comes before the champion's reach, so the range must stop
   before it: a range run to the reach would count destinations past
   the [Break].  [check_mirror] pins each build's fronts and tallies
   against the walk one candidate at a time. *)
let skip_filter_end_problem () =
  adversarial_problem_on ~semi_global_pairs:2
    ~local:
      ( 2.7401900628357409e-07, 5.3502917520513509e-07,
        2.1575509582235124e-07, 2.9039363357559419e-07 )
    ~semi:
      ( 4.0252927342134103e-07, 1.5342701175060815e-07,
        9.1627538193783856e-07, 2.1179401429443069e-07 )
    ~global:
      ( 2.572186372817383e-07, 1.2291662027105339e-07,
        8.4817412671916204e-07, 2.0085502528517084e-07 )
    ~gates:2432 ~clock:1858333049.018784 ~fraction:0.022481880880088314
    ~counts:[ 1; 3; 2; 1; 3; 1; 3; 3; 3; 2; 3; 3; 1; 2; 1 ]
    ~lengths_mm:
      [ 0.88708222265604664; 3.1476315739878804; 1.4086927311011574;
        3.9162138672997946; 0.6507924936394931; 1.0479293340067626;
        1.0500822561592424; 3.6441709721202731; 3.521016331402401;
        2.2186421065303663; 0.078463886772277502; 2.6762121069570601;
        3.4934851176577943; 0.47411774277978064; 0.92516256813052267 ]

let skip_after_truncation_problem () =
  adversarial_problem_on ~semi_global_pairs:2
    ~local:
      ( 4.8779677759925164e-07, 4.965569903820831e-07,
        1.0785542345961792e-06, 1.504228648949675e-07 )
    ~semi:
      ( 2.9460174905256453e-07, 2.3248174886077107e-07,
        5.2899163034335556e-07, 2.1926015385720128e-07 )
    ~global:
      ( 1.0496936094217565e-07, 1.661999328676815e-07,
        1.6258062218358724e-07, 2.1282090643196039e-07 )
    ~gates:1408 ~clock:3533456542.6493144 ~fraction:1.0
    ~counts:[ 2; 1; 2; 1; 2; 2; 2; 2 ]
    ~lengths_mm:
      [ 0.70013499248530664; 3.8487627944418477; 3.0344092055201681;
        2.4584584919441497; 2.7703030654702432; 3.8061711989588796;
        3.6903805888896275; 2.6072531008552695 ]

let skip_past_break_problem () =
  adversarial_problem
    ~local:
      ( 1.920928452620411e-07, 3.7929773045108616e-07,
        1.1469293052704615e-06, 1.8118506515295717e-07 )
    ~semi:
      ( 1.478130099303437e-07, 2.8793121445738934e-07,
        8.2632128019615233e-07, 2.7035855759766777e-07 )
    ~global:
      ( 2.5290503132733533e-07, 1.3657160313109569e-07,
        9.8849122908775006e-07, 1.9621618325025201e-07 )
    ~gates:2304 ~clock:2680706643.8929224 ~fraction:0.0045823082050604914
    ~counts:[ 2; 1; 2; 3; 1; 2; 1; 3; 3; 1; 3; 2; 2; 3 ]
    ~lengths_mm:
      [ 2.3202447386104357; 2.3646147841086727; 2.375566303671508;
        3.6505217355237511; 0.086936419208156868; 1.83926547495129;
        3.5975597583574883; 1.4211825545976589; 2.949329711805841;
        3.2602211610677414; 2.989721723448266; 0.52438849302120216;
        0.75193362007374198; 1.6816412918279915 ]

let test_range_skip_rare_paths () =
  List.iter
    (fun (label, problem) ->
      List.iter
        (fun width ->
          ignore
            (check_mirror
               ~label:(Printf.sprintf "%s width=%d" label width)
               ~width problem))
        [ 1; 2; 3; 8 ])
    [
      ("filter end inside the range", skip_filter_end_problem ());
      ("skip after a truncation", skip_after_truncation_problem ());
      ("break before the champion's reach", skip_past_break_problem ());
    ]

let test_front_basics () =
  Alcotest.check_raises "create rejects zero width"
    (Invalid_argument "Front.create: width must be positive") (fun () ->
      ignore (Front.create ~cells:1 ~width:0));
  Alcotest.check_raises "create rejects zero cells"
    (Invalid_argument "Front.create: cells must be positive") (fun () ->
      ignore (Front.create ~cells:0 ~width:4));
  let f = Front.create ~cells:2 ~width:4 in
  Alcotest.(check int) "fresh cell empty" 0 (Front.length f 0);
  Front.seed f 0 ~area:0.0 ~count:0;
  Alcotest.(check int) "seeded" 1 (Front.length f 0);
  Alcotest.(check (list int)) "seed has no splits" []
    (Front.splits f (Front.state f 0 0));
  Alcotest.(check int) "seed bypasses stats" 0 (Front.inserts f);
  Alcotest.check_raises "seed requires an empty cell"
    (Invalid_argument "Front.seed: cell not empty") (fun () ->
      Front.seed f 0 ~area:1.0 ~count:1)

(* ---- shared-tables budget sweep --------------------------------------- *)

let gen_budget_instance =
  let open QCheck2.Gen in
  let* inst = Helpers.gen_instance in
  let* fractions = list_size (int_range 0 4) (float_range 0.01 0.9) in
  return (inst, fractions)

let prop_search_budgets_matches_individual =
  qtest ~count:120
    "shared-tables budget sweep matches per-fraction computes"
    gen_budget_instance (fun ({ problem; label }, fractions) ->
      let shared =
        Array.to_list
          (Array.map fst
             (Ir_core.Rank_grid.evaluate problem
                (Array.of_list
                   (List.map
                      (fun f -> Ir_core.Rank_grid.point ~fraction:f ())
                      fractions))))
      in
      let individual =
        List.map (fun f -> compute (P.with_repeater_fraction problem f)) fractions
      in
      if List.length shared <> List.length fractions then
        QCheck2.Test.fail_reportf "%s: %d outcomes for %d fractions" label
          (List.length shared) (List.length fractions)
      else begin
        List.iteri
          (fun idx (s, ind) ->
            let ok =
              Ir_core.Outcome.equal s ind
              (* The shared build can be exact where an individual
                 widening ladder gave up: then the shared rank is the
                 true one and the individual only a lower bound. *)
              || (s.Ir_core.Outcome.exact
                 && (not ind.Ir_core.Outcome.exact)
                 && s.Ir_core.Outcome.rank_wires
                    >= ind.Ir_core.Outcome.rank_wires)
            in
            if not ok then
              QCheck2.Test.fail_reportf
                "%s: fraction #%d shared=%d/%b/%b individual=%d/%b/%b" label
                idx s.Ir_core.Outcome.rank_wires s.Ir_core.Outcome.assignable
                s.Ir_core.Outcome.exact ind.Ir_core.Outcome.rank_wires
                ind.Ir_core.Outcome.assignable ind.Ir_core.Outcome.exact)
          (List.combine shared individual);
        true
      end)

(* ---- phase-B probe scheduling: hints, probe fan, counter canary ------- *)

let gen_hint_instance =
  let open QCheck2.Gen in
  let* inst = Helpers.gen_instance in
  let* hint = int_range (-5) 30 in
  return (inst, hint)

let prop_hinted_search_matches_cold =
  qtest ~count:100 "hinted and fanned searches match the cold search"
    gen_hint_instance (fun ({ problem; label }, hint) ->
      let tables = Ir_core.Rank_dp.build_tables problem in
      let cold, cold_w = Ir_core.Rank_dp.search_tables tables in
      let check name (o, w) =
        if not (Ir_core.Outcome.equal cold o) || cold_w <> w then
          QCheck2.Test.fail_reportf "%s: %s search diverges: %d/%b vs %d/%b"
            label name cold.Ir_core.Outcome.rank_wires
            cold.Ir_core.Outcome.assignable o.Ir_core.Outcome.rank_wires
            o.Ir_core.Outcome.assignable
        else true
      in
      (* A random (usually wrong) hint, the correct boundary, an
         out-of-range hint, and a speculative fan: probe schedules differ,
         outcome and witness must not. *)
      check "random-hint" (Ir_core.Rank_dp.search_tables ~hint tables)
      && check "exact-hint"
           (Ir_core.Rank_dp.search_tables
              ~hint:cold.Ir_core.Outcome.boundary_bunch tables)
      && check "overshoot-hint"
           (Ir_core.Rank_dp.search_tables
              ~hint:(P.n_bunches problem + 17)
              tables)
      && check "fan" (Ir_core.Rank_dp.search_tables ~probe_fan:3 tables))

let test_counter_canary () =
  (* Frozen mid-size instance; the measured footprint is 4265 witness
     probes and 587927 packed wires over 8 greedy-fill calls, none of
     them deflected by the capacity screen (733197 packed wires before
     the top-pair screen decided the top pair from its two ends).  The
     ceilings were set when this canary was recorded at 5483 probes and
     733197 wires, with ~25% headroom: a change that bursts them is
     doing materially more feasibility work per search and should be
     understood, not ratified by bumping the numbers. *)
  let p = baseline_130nm_small () in
  let before = Ir_obs.snapshot () in
  let o = compute p in
  let after = Ir_obs.snapshot () in
  let delta name =
    counter_in after name - counter_in before name
  in
  Alcotest.(check bool) "canary assignable and exact" true
    (o.assignable && o.exact);
  let probes = delta "rank_dp/witness_probes" in
  if probes > 7_000 then
    Alcotest.failf "witness-probe budget burst: %d > 7000" probes;
  let packed = delta "greedy_fill/wires_packed" in
  if packed > 950_000 then
    Alcotest.failf "greedy-fill packing budget burst: %d > 950000" packed

let prop_default_search_exact =
  qtest ~count:100 "default search always reports exact"
    Helpers.gen_instance (fun { problem; label } ->
      let o = compute problem in
      if not o.exact then
        QCheck2.Test.fail_reportf "%s: default search left exact=false" label
      else true)

(* Monotonicity of boundary feasibility, probed through the search: a
   hinted search first probes its hint [c], keeps it as a lower bracket
   if feasible and as an upper one if not.  So every hint reproducing
   the exhaustive scan's boundary [b] (the largest feasible one) means
   every [c <= b] probed feasible and every [c > b] infeasible — exactly
   the downward-closed property the bracketing search relies on. *)
let prop_feasible_boundary_monotone =
  qtest ~count:60 "boundary feasibility is monotone"
    Helpers.gen_instance (fun { problem; label } ->
      let tables = Ir_core.Rank_dp.build_tables problem in
      let b = fst (Ir_core.Rank_dp.search_tables ~exhaustive:true tables) in
      let bad = ref None in
      for c = 0 to P.n_bunches problem do
        let o = fst (Ir_core.Rank_dp.search_tables ~hint:c tables) in
        if !bad = None && not (Ir_core.Outcome.equal o b) then bad := Some c
      done;
      match !bad with
      | Some c ->
          QCheck2.Test.fail_reportf "%s: non-monotone around boundary %d"
            label c
      | None -> true)

(* ---- level-stepped builder & table codec ------------------------------ *)

let test_builder_matches_build () =
  (* The stepped builder must be byte-identical to the monolithic build:
     same front planes, same arena layout, same tallies — checked at the
     strongest level available, the serialized table bytes. *)
  let p = baseline_130nm_small () in
  let mono = Ir_core.Rank_dp.build_tables p in
  let b = Ir_core.Rank_dp.builder p in
  Alcotest.(check int) "levels = n_pairs - 1" (P.n_pairs p - 1)
    (Ir_core.Rank_dp.builder_levels b);
  let steps = ref 0 in
  while Ir_core.Rank_dp.builder_step b do
    incr steps
  done;
  Alcotest.(check int) "stepped once per level"
    (Ir_core.Rank_dp.builder_levels b)
    (!steps + 1);
  let stepped = Ir_core.Rank_dp.builder_finish b in
  Alcotest.(check string) "stepped tables = monolithic tables (bytes)"
    (Ir_core.Rank_dp.encode_tables mono)
    (Ir_core.Rank_dp.encode_tables stepped)

let test_builder_finish_early () =
  let p = baseline_130nm_small () in
  let b = Ir_core.Rank_dp.builder p in
  ignore (Ir_core.Rank_dp.builder_step b);
  Alcotest.check_raises "finish before last level"
    (Invalid_argument "Rank_dp.builder_finish: build not complete")
    (fun () -> ignore (Ir_core.Rank_dp.builder_finish b));
  while Ir_core.Rank_dp.builder_step b do
    ()
  done;
  ignore (Ir_core.Rank_dp.builder_finish b);
  Alcotest.check_raises "a second finish would count the tallies twice"
    (Invalid_argument "Rank_dp.builder_finish: already finished")
    (fun () -> ignore (Ir_core.Rank_dp.builder_finish b))

(* Work counter deltas of [f ()], by counter name. *)
let counting f =
  let read () = counter_in (Ir_obs.snapshot ()) in
  let before = read () in
  let r = f () in
  let after = read () in
  (r, fun name -> after name - before name)

let stepped_to_done ?max_pareto p =
  let b = Ir_core.Rank_dp.builder ?max_pareto p in
  let steps = ref 1 in
  while Ir_core.Rank_dp.builder_step b do
    incr steps
  done;
  (b, !steps)

let encoded_digest t =
  Digest.to_hex (Digest.string (Ir_core.Rank_dp.encode_tables t))

(* The widen ladder on a stepped first rung.  The 4-pair walking
   instance truncates at width 8: with widening off the ladder returns
   the width-8 rung as it is, and with widening on it retries once, at
   width 16, which truncates nothing.  Every rung runs all its levels,
   the truncating one included. *)
let test_walking_ladder () =
  let p = walking_problem () in
  let b, steps = stepped_to_done p in
  Alcotest.(check int) "the rung runs every level"
    (Ir_core.Rank_dp.builder_levels b) steps;
  let width8 = Ir_core.Rank_dp.builder_finish b in
  Alcotest.(check bool) "the width-8 rung truncates" true
    (Ir_core.Rank_dp.table_truncations width8 > 0);
  Alcotest.(check string) "ladder off = frozen width-8 tables"
    "15b1cc6cee7eda6984c6ec77a96b3784"
    (encoded_digest
       (Ir_core.Rank_dp.widen_tables ~widen_on_overflow:false width8));
  let widened, n = counting (fun () -> Ir_core.Rank_dp.widen_tables width8) in
  Alcotest.(check string) "ladder = complete build at width 16"
    (encoded_digest (Ir_core.Rank_dp.build_tables ~max_pareto:16 p))
    (encoded_digest widened);
  Alcotest.(check int) "one retry" 1 (n "rank_dp/widen_retries");
  let b, _ = stepped_to_done (overflowing_problem ()) in
  Alcotest.(check string) "3-pair rung = frozen width-8 tables"
    "52fa627a2fe40e151c1e1c660004c868"
    (encoded_digest
       (Ir_core.Rank_dp.widen_tables ~widen_on_overflow:false
          (Ir_core.Rank_dp.builder_finish b)))

let test_builder_rejects_zero_width () =
  let p = baseline_130nm_small () in
  let rejects what f =
    Alcotest.check_raises what
      (Invalid_argument "Rank_dp.builder: max_pareto < 1") (fun () ->
        ignore (f ()))
  in
  rejects "builder" (fun () -> Ir_core.Rank_dp.builder ~max_pareto:0 p);
  rejects "build_tables" (fun () ->
      Ir_core.Rank_dp.build_tables ~max_pareto:(-1) p);
  rejects "one-cell grid" (fun () -> Ir_core.Rank_grid.compute ~max_pareto:0 p)

(* The widen ladder continued from a stepped first rung against
   [Helpers.reference_ladder], which spells the ladder out as a
   recursion over [build_tables]: the same final tables, outcome,
   witness and retries, and the same work counters, so no level is
   skipped or repeated and no tally is lost or counted twice. *)
let prop_ladder_matches_reference =
  qtest ~count:200 "stepped widen ladder = reference ladder"
    QCheck2.Gen.(
      quad Helpers.gen_instance_4pair (int_range 1 3) bool
        (oneofl [ 2; 4; 128 ]))
    (fun ({ problem; label }, width, widen_on_overflow, widen_cap) ->
      let label =
        Printf.sprintf "%s width=%d widen=%b cap=%d" label width
          widen_on_overflow widen_cap
      in
      let (ref_tables, ref_retries), ref_n =
        counting (fun () ->
            Helpers.reference_ladder ~widen_on_overflow ~widen_cap
              ~max_pareto:width problem)
      in
      let tables, n =
        counting (fun () ->
            let b, _ = stepped_to_done ~max_pareto:width problem in
            Ir_core.Rank_dp.widen_tables ~widen_on_overflow ~widen_cap
              (Ir_core.Rank_dp.builder_finish b))
      in
      let o, w = Ir_core.Rank_dp.search_tables tables in
      let ro, rw = Ir_core.Rank_dp.search_tables ref_tables in
      if not (Ir_core.Outcome.equal o ro) then
        QCheck2.Test.fail_reportf "%s: outcomes differ" label;
      if w <> rw then QCheck2.Test.fail_reportf "%s: witnesses differ" label;
      if
        Ir_core.Rank_dp.encode_tables tables
        <> Ir_core.Rank_dp.encode_tables ref_tables
      then QCheck2.Test.fail_reportf "%s: final tables differ" label;
      if n "rank_dp/widen_retries" <> ref_retries then
        QCheck2.Test.fail_reportf "%s: %d retries, reference %d" label
          (n "rank_dp/widen_retries") ref_retries;
      List.iter
        (fun c ->
          if n c <> ref_n c then
            QCheck2.Test.fail_reportf "%s: %s %d, reference %d" label c (n c)
              (ref_n c))
        [
          "rank_dp/states_expanded"; "rank_dp/pareto_inserts";
          "rank_dp/pareto_dominated"; "rank_dp/pareto_truncations";
        ];
      true)

(* ---- table codec ------------------------------------------------------- *)

let encode = Ir_core.Rank_dp.encode_tables
let error_name = Ir_core.Rank_dp.decode_error_name

let decode_error =
  Alcotest.testable
    (fun ppf e -> Format.pp_print_string ppf (error_name e))
    ( = )

(* [decode_tables]'s verdict alone, for [Alcotest.check]. *)
let verdict p blob = Result.map ignore (Ir_core.Rank_dp.decode_tables p blob)

let with_digest payload = Digest.string payload ^ payload

(* The codec's layout (rank_dp.mli) written field by field, so a test can
   state blobs the encoder never produces.  A state is (area, count,
   split, parent). *)
let codec_payload ~header ~lengths ~states =
  let b = Buffer.create 256 in
  List.iter (fun v -> Buffer.add_int64_le b (Int64.of_int v)) header;
  List.iter (fun l -> Buffer.add_int32_le b (Int32.of_int l)) lengths;
  List.iter
    (fun (area, count, split, parent) ->
      Buffer.add_int64_le b (Int64.bits_of_float area);
      Buffer.add_int64_le b (Int64.of_int count);
      Buffer.add_int32_le b (Int32.of_int split);
      Buffer.add_int32_le b (Int32.of_int parent))
    states;
  Buffer.contents b

(* A digest of the kept cells' contents alone — per state the area's
   bits, the count and the splits chain — so it pins what every search
   reads without pinning the arena layout or the blob format. *)
let kept_cell_digest problem t =
  let front = Ir_core.Rank_dp.front t in
  let n = P.n_bunches problem and m = P.n_pairs problem in
  let b = Buffer.create 4096 in
  for j = 0 to m - 1 do
    for i = 0 to n do
      if not (cell_screened problem j i) then begin
        let c = (j * (n + 1)) + i in
        Printf.bprintf b "%d,%d:" j i;
        for k = 0 to Front.length front c - 1 do
          Printf.bprintf b "%Lx/%d/%s;"
            (Int64.bits_of_float (Front.area front c k))
            (Front.count front c k)
            (String.concat ","
               (List.map string_of_int
                  (Front.splits front (Front.state front c k))))
        done;
        Buffer.add_char b '\n'
      end
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Frozen digests of phase-A tables.  The kept-cell digest pins what
   every search reads and must never move: the kernel's dominance
   pre-check must make the decisions a binary search per candidate
   makes, and the per-cell capacity screen must leave every kept cell as
   the unscreened build filled it (the digests were taken before the
   screen existed).  The blob digest pins the table codec's output byte
   for byte: every cell's length, screened cells included, and each live
   state with its canonical parent.  The blob digests moved once, when
   the explicit codec replaced [Marshal] output; the kept-cell digests
   did not, and decoded tables reproduce them. *)
let test_tables_byte_stable () =
  let table4_small =
    let design = Ir_tech.Design.v ~node:Ir_tech.Node.N130 ~gates:40_000 () in
    Ir_sweep.Table4.baseline_problem
      { Ir_sweep.Table4.default_config with design; bunch_size = 500 }
  in
  List.iter
    (fun (label, problem, width, kept, digest) ->
      let t = Ir_core.Rank_dp.build_tables ~max_pareto:width problem in
      Alcotest.(check string) (label ^ " kept cells") kept
        (kept_cell_digest problem t);
      (match Ir_core.Rank_dp.decode_tables problem (encode t) with
      | Ok d ->
          Alcotest.(check string) (label ^ " kept cells, decoded") kept
            (kept_cell_digest problem d)
      | Error e -> Alcotest.failf "%s: blob rejected: %s" label (error_name e));
      Alcotest.(check string) label digest
        (Digest.to_hex (Digest.string (Ir_core.Rank_dp.encode_tables t))))
    [
      ("overflowing width=8", overflowing_problem (), 8,
        "fec605f096d2ac6c33be2ca6b931c8a1",
        "52fa627a2fe40e151c1e1c660004c868");
      ("overflowing width=16", overflowing_problem (), 16,
        "c3b7ae4c57961265322fda39709670e1",
        "898b02d94a457abf0c0b797a1494e017");
      ("rank-changing width=1", rank_changing_problem (), 1,
        "8323888911b5ae3cba4c04c7d01d7717",
        "269c221912d105139cd7329ebec1d77d");
      ("walking width=8", walking_problem (), 8,
        "074ab6d169c41fb75d69cf618adabe93",
        "15b1cc6cee7eda6984c6ec77a96b3784");
      ("walking width=16", walking_problem (), 16,
        "13cc9c6508ec97a290d433af5ab91bdd",
        "4c374b5e9bcc83e389bc47782bb6ab2e");
      ("table-4 small base width=8", table4_small, 8,
        "dac738c2be72d11060a94a52dd4bbec4",
        "7c5b38ccb846c26eff8315a6ecb5539c");
    ];
  (* The long-window cells, at the default width 8: the full-budget
     130nm/1M plane the server builds (fraction 1.0, no power cap) and
     two cross-node cells.  Their transition loops run hundreds of
     destinations, so these are the builds whose work the range skip
     cuts; the work counters are pinned with the bytes, since a skip
     must count what the walk counts.  Row 2 of the plane holds sources
     whose keys lie within the skip's rounding slack of an earlier
     one, and those must be walked. *)
  let baseline ?(gates = 1_000_000) node =
    Ir_core.Rank.problem_of_design (Ir_core.Rank.baseline_design ~gates node)
  in
  let plane =
    P.with_power_budget
      (P.with_repeater_fraction (baseline Ir_tech.Node.N130) 1.0)
      infinity
  in
  List.iter
    (fun (label, problem, kept, digest, (inserts, dominated, screened)) ->
      let before = Ir_obs.snapshot () in
      let t = Ir_core.Rank_dp.build_tables problem in
      let after = Ir_obs.snapshot () in
      let delta name = counter_in after name - counter_in before name in
      Alcotest.(check string) (label ^ " kept cells") kept
        (kept_cell_digest problem t);
      Alcotest.(check string) label digest
        (Digest.to_hex (Digest.string (Ir_core.Rank_dp.encode_tables t)));
      Alcotest.(check (list int))
        (label ^ " inserts, dominated, screened")
        [ inserts; dominated; screened ]
        (List.map delta
           [
             "rank_dp/pareto_inserts"; "rank_dp/pareto_dominated";
             "rank_dp/cells_screened";
           ]))
    [
      ("130nm/1M full-budget plane", plane,
        "8007bf71aecaff34d59fcf9d1e6b8591",
        "ccc986e1e065f2fdd0637632b6a58a3f",
        (237_729, 236_421, 444_765));
      ("n90_4750k", baseline ~gates:4_750_000 Ir_tech.Node.N90,
        "f8d1775282985153e3a624b7b96927a6",
        "4ffe630da0f28dd2dc7b798f6d6beeae",
        (27_532, 25_679, 2_789_031));
      ("n180_6000k", baseline ~gates:6_000_000 Ir_tech.Node.N180,
        "353d0cf73fe6b9a063ed67a291178641",
        "72e9e4aab322564f885674ab5bb0e1b5",
        (97_178, 94_510, 3_786_478));
    ]

(* The store's allocation, pinned on the perfbench [cross_widen] cells:
   a build hands out one slice per non-empty cell (the no-fit 3-pair
   cell none, its builder seeding nothing), the [rank_dp/front_slices]
   gauge reports it, and a decoded blob's store gets one slice per
   non-empty cell too. *)
let test_front_slices () =
  let cross ?(structure = Ir_ia.Arch.baseline_structure) ~gates node =
    Ir_core.Rank.problem_of_design ~structure
      (Ir_core.Rank.baseline_design ~gates node)
  in
  let three_pair =
    { Ir_ia.Arch.baseline_structure with Ir_ia.Arch.semi_global_pairs = 1 }
  in
  let non_empty front =
    let k = ref 0 in
    for c = 0 to Front.cells front - 1 do
      if Front.length front c > 0 then incr k
    done;
    !k
  in
  List.iter
    (fun (label, problem, slices) ->
      Ir_obs.reset ();
      let t = Ir_core.Rank_dp.build_tables problem in
      let front = Ir_core.Rank_dp.front t in
      Alcotest.(check int) (label ^ " slices") slices (Front.slices front);
      Alcotest.(check int) (label ^ " non-empty cells") slices
        (non_empty front);
      Alcotest.(check (option int))
        (label ^ " gauge")
        (Some slices)
        (Ir_obs.find_gauge (Ir_obs.snapshot ()) "rank_dp/front_slices");
      match Ir_core.Rank_dp.decode_tables problem (encode t) with
      | Ok d ->
          let restored = Ir_core.Rank_dp.front d in
          Alcotest.(check int) (label ^ " decoded slices") slices
            (Front.slices restored);
          Alcotest.(check int) (label ^ " decoded non-empty cells") slices
            (non_empty restored)
      | Error e -> Alcotest.failf "%s: blob rejected: %s" label (error_name e))
    [
      ("n90_4750k", cross ~gates:4_750_000 Ir_tech.Node.N90, 1_854);
      ( "n90_4500k_3pair",
        cross ~structure:three_pair ~gates:4_500_000 Ir_tech.Node.N90,
        0 );
      ("n180_6000k", cross ~gates:6_000_000 Ir_tech.Node.N180, 2_669);
    ];
  (* A no-fit builder seeds nothing and steps no level. *)
  let b =
    Ir_core.Rank_dp.builder
      (cross ~structure:three_pair ~gates:4_500_000 Ir_tech.Node.N90)
  in
  Alcotest.(check bool) "no-fit builder has no level" false
    (Ir_core.Rank_dp.builder_step b);
  Alcotest.(check int) "no-fit builder slices" 0
    (Front.slices (Ir_core.Rank_dp.front (Ir_core.Rank_dp.builder_finish b)));
  Ir_obs.reset ()

(* The decoder against the blob of real tables: the pristine blob
   restores tables that search identically; truncations, bit flips and
   the wrong problem are rejected, and none of them raises. *)
let test_decode_fuzz () =
  let p = baseline_130nm_small () in
  let t = Ir_core.Rank_dp.build_tables p in
  let blob = encode t in
  (match Ir_core.Rank_dp.decode_tables p blob with
  | Error e -> Alcotest.failf "pristine blob rejected: %s" (error_name e)
  | Ok restored ->
      let o, w = Ir_core.Rank_dp.search_tables restored in
      let o0, w0 = Ir_core.Rank_dp.search_tables t in
      Alcotest.(check bool) "restored search identical" true
        (Ir_core.Outcome.equal o o0 && w = w0));
  let len = String.length blob in
  (* Truncations at every regime: empty, inside the digest, digest-only,
     mid-payload, one byte short — all fail the digest before the
     validator reads a field. *)
  List.iter
    (fun l ->
      if l < len then
        Alcotest.check
          Alcotest.(result unit decode_error)
          (Printf.sprintf "truncated to %d bytes" l)
          (Error Ir_core.Rank_dp.Bad_digest)
          (verdict p (String.sub blob 0 l)))
    [ 0; 1; 15; 16; 17; len / 4; len / 2; len - 1 ];
  (* Single-bit flips striding the whole blob (digest and payload): a
     flip in the payload breaks the digest, a flip in the digest breaks
     the comparison. *)
  let step = max 1 (len / 97) in
  let pos = ref 0 in
  while !pos < len do
    let b = Bytes.of_string blob in
    Bytes.set b !pos
      (Char.chr (Char.code (Bytes.get b !pos) lxor (1 lsl (!pos mod 8))));
    Alcotest.check
      Alcotest.(result unit decode_error)
      (Printf.sprintf "bit flip at offset %d" !pos)
      (Error Ir_core.Rank_dp.Bad_digest)
      (verdict p (Bytes.to_string b));
    pos := !pos + step
  done;
  (* A valid blob presented against the wrong problem (different
     bunching) must fail the dimension check. *)
  let other = baseline_130nm_small ~bunch_size:100 () in
  if P.n_bunches other <> P.n_bunches p then
    Alcotest.check
      Alcotest.(result unit decode_error)
      "wrong-geometry blob" (Error Ir_core.Rank_dp.Geometry) (verdict other blob)

(* A blob whose front still holds the unread row m fails closed with
   the geometry error, even with a valid digest and every other field
   right: its cell count is not the problem's m * (n + 1). *)
let test_decode_row_m_front () =
  let p = baseline_130nm_small () in
  let n = P.n_bunches p and m = P.n_pairs p in
  let empty rows =
    let cells = rows * (n + 1) in
    with_digest
      (codec_payload ~header:[ n; m; cells; 8; 0 ]
         ~lengths:(List.init cells (fun _ -> 0))
         ~states:[])
  in
  Alcotest.check
    Alcotest.(result unit decode_error)
    "rows 0..m-1 decode" (Ok ()) (verdict p (empty m));
  Alcotest.check
    Alcotest.(result unit decode_error)
    "rows 0..m rejected" (Error Ir_core.Rank_dp.Geometry)
    (verdict p (empty (m + 1)))

(* Each structural violation, made by editing one field of a valid blob
   and re-prefixing the payload's digest, is reported under its own
   error. *)
let test_decode_named_errors () =
  let p = walking_problem () in
  let t = Ir_core.Rank_dp.build_tables p in
  let blob = encode t in
  let front = Ir_core.Rank_dp.front t in
  let n = P.n_bunches p and m = P.n_pairs p in
  let cells = m * (n + 1) in
  let header f = 16 + (8 * f) and length c = 16 + 40 + (4 * c) in
  let state s = 16 + 40 + (4 * cells) + (24 * s) in
  (* The canonical number of the first state of a row-1+ cell holding
     two or more, and that cell's bunch index. *)
  let s0, i0 =
    let s = ref 0 and found = ref None in
    for c = 0 to cells - 1 do
      let l = Front.length front c in
      if !found = None && c > n && l >= 2 then found := Some (!s, c mod (n + 1));
      s := !s + l
    done;
    match !found with
    | Some x -> x
    | None -> Alcotest.fail "no row-1+ cell with two states"
  in
  let edit ?(digest = true) f =
    let b = Bytes.of_string blob in
    f b;
    let b = Bytes.to_string b in
    if digest then with_digest (String.sub b 16 (String.length b - 16)) else b
  in
  let i64 off v b = Bytes.set_int64_le b off (Int64.of_int v) in
  let i32 off v b = Bytes.set_int32_le b off (Int32.of_int v) in
  let area off v b = Bytes.set_int64_le b off (Int64.bits_of_float v) in
  (* The second state of that cell, and the first's area and count. *)
  let second = state (s0 + 1) in
  let first_area = Int64.float_of_bits (String.get_int64_le blob (state s0)) in
  let first_count = Int64.to_int (String.get_int64_le blob (state s0 + 8)) in
  let payload = String.sub blob 16 (String.length blob - 16) in
  let cut = String.sub payload 0 (String.length payload - 1) in
  List.iter
    (fun (label, bad, expected) ->
      Alcotest.check
        Alcotest.(result unit decode_error)
        label (Error expected) (verdict p bad))
    Ir_core.Rank_dp.
      [
        ("payload edited, digest kept",
          edit ~digest:false (i64 (header 0) (n + 1)), Bad_digest);
        ("last byte cut", with_digest cut, Truncated);
        ("a byte appended", with_digest (payload ^ "\000"), Trailing_bytes);
        ("n off by one", edit (i64 (header 0) (n + 1)), Geometry);
        ("m off by one", edit (i64 (header 1) (m + 1)), Geometry);
        ("max_pareto 0", edit (i64 (header 3) 0), Bad_width);
        ("a cell past max_pareto", edit (i32 (length 0) 9), Bad_width);
        ("negative truncations", edit (i64 (header 4) (-1)), Bad_truncations);
        ("an area repeated", edit (area second first_area), Bad_area);
        ("a NaN area", edit (area (state s0) Float.nan), Bad_area);
        ("a negative area", edit (area (state 0) (-1.0)), Bad_area);
        ("a count repeated", edit (i64 (second + 8) first_count), Bad_count);
        ("a count past int",
          edit (fun b -> Bytes.set_int64_le b (second + 8) Int64.min_int),
          Bad_count);
        ("a split off its cell", edit (i32 (second + 16) (i0 + 1)), Bad_split);
        ("a root split", edit (i32 (state 0 + 16) 0), Bad_split);
        ("a parent in its own row", edit (i32 (second + 20) s0), Bad_parent);
        ("a root with a parent", edit (i32 (state 0 + 20) 0), Bad_parent);
      ];
  Alcotest.(check int) "every error is named once"
    (List.length Ir_core.Rank_dp.decode_errors)
    (List.length
       (List.sort_uniq compare
          (List.map error_name Ir_core.Rank_dp.decode_errors)))

(* The [Front] invariants decoded tables must satisfy: every cell within
   the width, areas finite, non-negative and strictly ascending, counts
   non-negative and strictly descending, and each state's splits one per
   pair above its row, non-decreasing and ending at its bunch. *)
let front_violation problem t =
  let front = Ir_core.Rank_dp.front t in
  let n = P.n_bunches problem and m = P.n_pairs problem in
  let found = ref None in
  let bad fmt =
    Printf.ksprintf (fun s -> if !found = None then found := Some s) fmt
  in
  if Front.cells front <> m * (n + 1) then bad "cells %d" (Front.cells front)
  else
    for j = 0 to m - 1 do
      for i = 0 to n do
        let c = (j * (n + 1)) + i in
        let len = Front.length front c in
        if len > Front.width front then bad "cell %d holds %d" c len;
        for k = 0 to len - 1 do
          let a = Front.area front c k and ct = Front.count front c k in
          if not (Float.is_finite a && a >= 0.0) then bad "area %h" a;
          if ct < 0 then bad "count %d" ct;
          if
            k > 0
            && not
                 (a > Front.area front c (k - 1)
                 && ct < Front.count front c (k - 1))
          then bad "cell %d not Pareto at %d" c k;
          let sp = Front.splits front (Front.state front c k) in
          let rec sorted = function
            | x :: (y :: _ as r) -> x <= y && sorted r
            | _ -> true
          in
          if
            List.length sp <> j
            || (not (sorted sp))
            || List.exists (fun x -> x < 0 || x > i) sp
            || (j > 0 && List.nth sp (j - 1) <> i)
          then bad "cell %d state %d splits" c k
        done
      done
    done;
  !found

(* Fuzz inputs for the validator: blobs of real tables (one truncating)
   with one byte replaced (the most likely edit, which shifts no field),
   deleted or inserted, cut short, or replaced by arbitrary bytes — most
   with the edited payload's digest re-prefixed, so they reach the
   structural checks. *)
let codec_cases =
  lazy
    (Array.map
       (fun (p, width) ->
         (p, encode (Ir_core.Rank_dp.build_tables ~max_pareto:width p)))
       [|
         (baseline_130nm_small (), 8);
         (overflowing_problem (), 8);
         (walking_problem (), 8);
         (rank_changing_problem (), 1);
       |])

let gen_codec_input =
  let open QCheck2.Gen in
  let* case = int_range 0 3 in
  let p, blob = (Lazy.force codec_cases).(case) in
  let payload = String.sub blob 16 (String.length blob - 16) in
  let len = String.length payload in
  let replace =
    let* i = int_range 0 (len - 1) in
    let* c = char in
    let b = Bytes.of_string payload in
    Bytes.set b i c;
    return (Bytes.to_string b)
  in
  let* edited =
    frequency
      [
        (1, gen_fuzz (return payload));
        (1, map (String.sub payload 0) (int_range 0 len));
        (2, replace);
      ]
  in
  let* digest = frequency [ (9, return true); (1, return false) ] in
  return (case, p, if digest then with_digest edited else edited)

let prop_decode_validator_fuzz =
  qtest ~count:1000 "table codec validator fuzz" gen_codec_input
    (fun (case, p, input) ->
      match Ir_core.Rank_dp.decode_tables p input with
      | exception e ->
          QCheck2.Test.fail_reportf "case %d: raised %s" case
            (Printexc.to_string e)
      | Error _ -> true
      | Ok t -> (
          match front_violation p t with
          | Some v -> QCheck2.Test.fail_reportf "case %d: accepted, %s" case v
          | None -> (
              if encode t <> input then
                QCheck2.Test.fail_reportf "case %d: does not re-encode" case;
              match Ir_core.Rank_dp.search_tables t with
              | exception e ->
                  QCheck2.Test.fail_reportf "case %d: search raised %s" case
                    (Printexc.to_string e)
              | _ -> true)))

(* [None] when [decode (encode t)] is [t] to every reader: the same
   outcome and witness at the build's budget and rebudgeted to [fractions],
   the same kept-cell digest, and the same bytes when encoded again. *)
let round_trip_failure ?(fractions = [ 1.0 ]) problem t =
  let blob = encode t in
  match Ir_core.Rank_dp.decode_tables problem blob with
  | Error e -> Some ("rejected: " ^ error_name e)
  | Ok d ->
      let same tables tables' =
        let o, w = Ir_core.Rank_dp.search_tables tables in
        let o', w' = Ir_core.Rank_dp.search_tables tables' in
        Ir_core.Outcome.equal o o' && w = w'
      in
      if encode d <> blob then Some "re-encoding differs"
      else if kept_cell_digest problem d <> kept_cell_digest problem t then
        Some "kept-cell digest differs"
      else if not (same t d) then Some "search differs"
      else
        List.find_map
          (fun f ->
            let rb = Ir_core.Rank_dp.rebudget ~fraction:f in
            if same (rb t) (rb d) then None
            else Some (Printf.sprintf "search at fraction %g differs" f))
          fractions

let prop_codec_round_trip =
  qtest ~count:200 "table codec round trip"
    QCheck2.Gen.(
      triple
        (oneof [ Helpers.gen_instance; Helpers.gen_instance_4pair ])
        (oneofl [ 1; 3; 8 ])
        (float_range 0.01 1.0))
    (fun ({ problem; label }, width, fraction) ->
      let t = Ir_core.Rank_dp.build_tables ~max_pareto:width problem in
      match round_trip_failure ~fractions:[ 1.0; fraction ] problem t with
      | None -> true
      | Some why ->
          QCheck2.Test.fail_reportf "%s width=%d truncations=%d: %s" label
            width
            (Ir_core.Rank_dp.table_truncations t)
            why)

(* ---- grid-batched engine ---------------------------------------------- *)

let base_clock p = (P.arch p).Ir_ia.Arch.design.Ir_tech.Design.clock

(* The reference path: derive the point's problem exactly as an
   independent per-point sweep would; [compute] answers it as its own
   one-cell grid. *)
let reference_problem base (pt : Ir_core.Rank_grid.point) =
  let p =
    match pt.Ir_core.Rank_grid.materials with
    | None -> base
    | Some m -> P.with_materials base m
  in
  let p =
    match pt.Ir_core.Rank_grid.clock with
    | None -> p
    | Some c -> P.with_clock p c
  in
  match pt.Ir_core.Rank_grid.fraction with
  | None -> p
  | Some f -> P.with_repeater_fraction p f

let gen_grid_instance =
  let open QCheck2.Gen in
  let* inst = Helpers.gen_instance in
  let* raw_points =
    list_size (int_range 0 6)
      (let* k = opt (float_range 1.5 4.2) in
       let* miller = opt (float_range 1.0 2.0) in
       let* clock_scale = opt (float_range 0.4 2.5) in
       let* fraction = opt (float_range 0.02 0.95) in
       return (k, miller, clock_scale, fraction))
  in
  return (inst, raw_points)

let grid_points base raw =
  Array.of_list
    (List.map
       (fun (k, miller, clock_scale, fraction) ->
         let materials =
           match (k, miller) with
           | None, None -> None
           | _ -> Some (Ir_ia.Materials.v ?k ?miller ())
         in
         let clock = Option.map (fun s -> s *. base_clock base) clock_scale in
         { Ir_core.Rank_grid.materials; clock; fraction })
       raw)

let prop_grid_matches_per_point =
  qtest ~count:60 "grid wavefront matches independent per-point computes"
    gen_grid_instance (fun ({ problem; label }, raw) ->
      let points = grid_points problem raw in
      let grid = Ir_core.Rank_grid.evaluate problem points in
      Array.iteri
        (fun i pt ->
          let g = fst grid.(i) in
          let ind = compute (reference_problem problem pt) in
          let ok =
            Ir_core.Outcome.equal g ind
            (* Same corner as the budget sweep: the shared (wider) build
               can be exact where the individual ladder capped out. *)
            || (g.Ir_core.Outcome.exact
               && (not ind.Ir_core.Outcome.exact)
               && g.Ir_core.Outcome.rank_wires >= ind.Ir_core.Outcome.rank_wires
               )
          in
          if not ok then
            QCheck2.Test.fail_reportf
              "%s: cell #%d grid=%d/%b/%b individual=%d/%b/%b" label i
              g.Ir_core.Outcome.rank_wires g.Ir_core.Outcome.assignable
              g.Ir_core.Outcome.exact ind.Ir_core.Outcome.rank_wires
              ind.Ir_core.Outcome.assignable ind.Ir_core.Outcome.exact)
        points;
      true)

let prop_eval_batch_matches_compute =
  qtest ~count:40 "heterogeneous batch matches per-problem computes"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 4) Helpers.gen_instance)
    (fun insts ->
      let problems =
        Array.of_list (List.map (fun i -> i.Helpers.problem) insts)
      in
      let batch = Ir_core.Rank_grid.eval_batch problems in
      Array.iteri
        (fun i p ->
          let ind = compute p in
          if not (Ir_core.Outcome.equal batch.(i) ind) then
            QCheck2.Test.fail_reportf "batch cell #%d diverges" i)
        problems;
      true)

let test_grid_budgets_column () =
  (* The grid's R column — one shared plane — must be byte-identical to
     each fraction's own one-cell compute. *)
  let p = baseline_130nm_small () in
  let fractions = [ 0.1; 0.2; 0.3; 0.4; 0.5 ] in
  let budgets =
    List.map (fun f -> compute (P.with_repeater_fraction p f)) fractions
  in
  let grid, n =
    counting (fun () ->
        Ir_core.Rank_grid.evaluate p
          (Array.of_list
             (List.map
                (fun f -> Ir_core.Rank_grid.point ~fraction:f ())
                fractions)))
  in
  Alcotest.(check int) "one plane: four cells shared" 4 (n "grid/cells_shared");
  List.iteri
    (fun i b ->
      Alcotest.(check bool)
        (Printf.sprintf "fraction #%d identical" i)
        true
        (Ir_core.Outcome.equal b (fst grid.(i))))
    budgets

let test_grid_witness_identity () =
  (* Witnesses, not just ranks: the stepped+widened+rebudgeted path must
     return the exact witness of the point's own one-cell grid. *)
  let p = baseline_130nm_small () in
  let b = Ir_core.Rank_dp.builder (P.with_repeater_fraction p 0.5) in
  while Ir_core.Rank_dp.builder_step b do
    ()
  done;
  let tables = Ir_core.Rank_dp.widen_tables (Ir_core.Rank_dp.builder_finish b) in
  Alcotest.(check int) "baseline truncation-free" 0
    (Ir_core.Rank_dp.table_truncations tables);
  List.iter
    (fun f ->
      let go, gw =
        Ir_core.Rank_dp.search_tables (Ir_core.Rank_dp.rebudget ~fraction:f tables)
      in
      let io, iw = Ir_core.Rank_grid.compute (P.with_repeater_fraction p f) in
      Alcotest.(check bool)
        (Printf.sprintf "outcome at %.1f" f)
        true
        (Ir_core.Outcome.equal go io);
      if gw <> iw then Alcotest.failf "witness at %.1f diverges" f)
    [ 0.1; 0.3; 0.5 ]

(* A truncated plane answers its own build budget only: [evaluate]
   answers the plane's widest fraction from it and every other fraction
   cold, and a resident plane built at that fraction answers it through
   [query] and refuses a narrower one. *)
let test_grid_truncated_plane_own_budget () =
  let p = overflowing_problem () in
  let pt f = Ir_core.Rank_grid.point ~fraction:f () in
  let cold f = compute ~widen_on_overflow:false (P.with_repeater_fraction p f) in
  let answers =
    Ir_core.Rank_grid.evaluate ~widen_on_overflow:false p
      [| pt 0.4; pt 0.6; pt 0.8 |]
  in
  List.iteri
    (fun i f ->
      Alcotest.(check bool)
        (Printf.sprintf "evaluate at %.1f = cold" f)
        true
        (Ir_core.Outcome.equal (cold f) (fst answers.(i))))
    [ 0.4; 0.6; 0.8 ];
  let g =
    Ir_core.Rank_grid.resident ~widen_on_overflow:false
      (P.with_repeater_fraction p 0.8)
  in
  Alcotest.(check bool) "the plane truncates at width 8" true
    (Ir_core.Rank_dp.table_truncations (Ir_core.Rank_grid.build_plane g (pt 0.8))
    > 0);
  (match Ir_core.Rank_grid.query g (pt 0.8) with
  | Some (o, _) ->
      Alcotest.(check bool) "query at the build budget = cold" true
        (Ir_core.Outcome.equal (cold 0.8) o)
  | None -> Alcotest.fail "query refused the plane's own budget");
  Alcotest.(check bool) "query below the build budget refused" true
    (Option.is_none (Ir_core.Rank_grid.query g (pt 0.5)))

(* [build_plane] builds and answers nothing: no search probe, no cell,
   and the phase-A work of one [build_tables] of the plane's problem. *)
let test_grid_build_plane_answers_nothing () =
  let p = baseline_130nm_small () in
  let g = Ir_core.Rank_grid.resident p in
  let _, n =
    counting (fun () ->
        Ir_core.Rank_grid.build_plane g (Ir_core.Rank_grid.point ()))
  in
  let _, n_build = counting (fun () -> Ir_core.Rank_dp.build_tables p) in
  Alcotest.(check int) "no search probe" 0 (n "rank_dp/search_probes");
  Alcotest.(check int) "no cell answered" 0 (n "grid/cells_evaluated");
  Alcotest.(check int) "the inserts of one build"
    (n_build "rank_dp/pareto_inserts")
    (n "rank_dp/pareto_inserts");
  Alcotest.(check int) "one plane" 1 (Ir_core.Rank_grid.planes g)

(* A plane is installed once: [adopt] never replaces a resident one. *)
let test_grid_adopt_refuses_resident () =
  let p = baseline_130nm_small () in
  let g = Ir_core.Rank_grid.resident p in
  let tables = Ir_core.Rank_grid.build_plane g (Ir_core.Rank_grid.point ()) in
  Alcotest.check_raises "adopt refuses a resident plane"
    (Invalid_argument "Rank_grid.adopt: plane already resident") (fun () ->
      Ir_core.Rank_grid.adopt g (Ir_core.Rank_grid.point ()) tables);
  Alcotest.(check int) "still one plane" 1 (Ir_core.Rank_grid.planes g)

(* A resident grid only adopts truncation-free tables: a truncated
   front cannot answer the narrower fractions a plane is rebound to. *)
let test_grid_adopt_refuses_truncated () =
  let p = overflowing_problem () in
  let tables = Ir_core.Rank_dp.build_tables ~max_pareto:8 p in
  Alcotest.(check bool) "tables truncate at width 8" true
    (Ir_core.Rank_dp.table_truncations tables > 0);
  let g = Ir_core.Rank_grid.resident p in
  Alcotest.check_raises "adopt refuses truncated tables"
    (Invalid_argument "Rank_grid.adopt: truncated tables") (fun () ->
      Ir_core.Rank_grid.adopt g (Ir_core.Rank_grid.point ()) tables);
  Alcotest.(check int) "no plane installed" 0 (Ir_core.Rank_grid.planes g)

let test_with_materials_equals_fresh () =
  (* [Problem.with_materials] must be indistinguishable from constructing
     the instance from scratch at the new materials — strongest check:
     identical phase-A table bytes. *)
  let design =
    Ir_tech.Design.v ~node:Ir_tech.Node.N130 ~gates:40_000 ~clock:8e8 ()
  in
  let bunches =
    Array.init 6 (fun i ->
        { Ir_wld.Dist.length = 2e-3 /. float_of_int (i + 1); count = 3 })
  in
  let base =
    P.of_bunches ~arch:(Ir_ia.Arch.make ~design ()) ~bunches ()
  in
  let mats = Ir_ia.Materials.v ~k:2.2 ~miller:1.5 () in
  let derived = P.with_materials base mats in
  let fresh =
    P.of_bunches
      ~arch:(Ir_ia.Arch.make ~materials:mats ~design ())
      ~bunches ()
  in
  Alcotest.(check string) "identical table bytes"
    (Ir_core.Rank_dp.encode_tables (Ir_core.Rank_dp.build_tables fresh))
    (Ir_core.Rank_dp.encode_tables (Ir_core.Rank_dp.build_tables derived));
  let od = compute derived in
  let off = compute fresh in
  Alcotest.(check bool) "identical outcomes" true
    (Ir_core.Outcome.equal od off)

(* ---- hard corpus: every driver on the hard cases ------------------- *)

(* A fixed quick corpus of the cases the Table-4 corpus never hits:
   Definition-3 no-fit, a front that truncates at width 1 (with the widen
   ladder on and off), two that truncate at the default width 8 and widen
   (one on three pairs, one on four), a single bunch, a powered
   instance and an 8-layer stack.
   Each case's outcome must be the same through every driver — a
   one-cell grid, a shared plane of [evaluate], the heterogeneous
   [eval_batch] and a resident grid's [query] — and match the
   brute-force oracle where that is small enough.  Work is gated too: a
   no-fit cell must expand no state and insert nothing into a front in
   any driver, and a [ladder] case must take the same widen retries and
   truncations in every driver, at least one retry.  (Only a case whose
   budget never binds can be a [ladder] case: the resident driver builds
   its plane at fraction 1.0.) *)
type hard_case = {
  hc_name : string;
  hc_problem : P.t;
  hc_max_pareto : int option;
  hc_widen : bool option;
  hc_brute : bool;
  hc_nofit : bool;
  hc_ladder : bool;
}

let hard_corpus () =
  let case ?max_pareto ?widen ?(brute = false) ?(nofit = false)
      ?(ladder = false) name p =
    {
      hc_name = name;
      hc_problem = p;
      hc_max_pareto = max_pareto;
      hc_widen = widen;
      hc_brute = brute;
      hc_nofit = nofit;
      hc_ladder = ladder;
    }
  in
  let design gates = Ir_tech.Design.v ~node:Ir_tech.Node.N130 ~gates () in
  let nofit =
    P.of_bunches
      ~arch:(Ir_ia.Arch.make ~design:(design 100) ())
      ~bunches:[| { Ir_wld.Dist.length = 1e-2; count = 1000 } |]
      ()
  in
  let single =
    P.of_bunches
      ~arch:(Ir_ia.Arch.make ~design:(design 100_000) ())
      ~bunches:[| { Ir_wld.Dist.length = 2e-3; count = 3 } |]
      ()
  in
  let powered =
    let p = baseline_130nm_small () in
    match Ir_core.Rank_grid.compute p with
    | _, Some w -> P.with_power_budget p (0.5 *. Ir_core.Rank_dp.witness_power p w)
    | _, None -> Alcotest.fail "baseline unassignable"
  in
  let eight_layer =
    let structure =
      { Ir_ia.Arch.local_pairs = 1; semi_global_pairs = 3; global_pairs = 1 }
    in
    (* Only the 90nm stack has the layers for a third semi-global pair. *)
    let d = Ir_tech.Design.v ~node:Ir_tech.Node.N90 ~gates:40_000 () in
    P.make ~bunch_size:500
      ~arch:(Ir_ia.Arch.make ~structure ~design:d ())
      ~wld:
        (Ir_wld.Davis.generate
           (Ir_wld.Davis.params ~gates:40_000 ~rent_p:0.6 ~fan_out:3.0 ()))
      ()
  in
  [
    case "no-fit" nofit ~brute:true ~nofit:true;
    case "width-1, ladder on" (rank_changing_problem ()) ~max_pareto:1
      ~brute:true;
    case "width-1, ladder off" (rank_changing_problem ()) ~max_pareto:1
      ~widen:false;
    case "width-8, widens" (overflowing_problem ()) ~brute:true ~ladder:true;
    case "4-pair width-8, widens" (walking_problem ()) ~brute:true
      ~ladder:true;
    case "single bunch" single ~brute:true;
    case "powered" powered;
    case "8-layer stack" eight_layer;
  ]

let test_hard_corpus () =
  List.iter
    (fun c ->
      let p = c.hc_problem in
      let max_pareto = c.hc_max_pareto and widen_on_overflow = c.hc_widen in
      let f = (P.arch p).Ir_ia.Arch.design.Ir_tech.Design.repeater_fraction in
      let work run =
        Ir_obs.reset ();
        let o = run () in
        let snap = Ir_obs.snapshot () in
        let n = counter_in snap in
        ( o,
          n "rank_dp/states_expanded" + n "rank_dp/pareto_inserts",
          (n "rank_dp/widen_retries", n "rank_dp/pareto_truncations") )
      in
      let drivers =
        [
          ( "one cell",
            fun () ->
              fst (Ir_core.Rank_grid.compute ?max_pareto ?widen_on_overflow p)
          );
          ( "evaluate plane",
            fun () ->
              (* The cell shares its plane with a narrower-budget point. *)
              fst
                (Ir_core.Rank_grid.evaluate ?max_pareto ?widen_on_overflow p
                   [|
                     Ir_core.Rank_grid.point ();
                     Ir_core.Rank_grid.point ~fraction:(0.5 *. f) ();
                   |]).(0) );
          ( "eval_batch",
            fun () ->
              (Ir_core.Rank_grid.eval_batch ?max_pareto ?widen_on_overflow
                 [| p |]).(0) );
          ( "resident query",
            fun () ->
              (* The serve tier's path: a full-budget resident grid, the
                 plane built by [build_plane], the point answered by
                 [query] — or, when the plane cannot answer it, by the
                 point's own one-cell compute. *)
              let g =
                Ir_core.Rank_grid.resident ?max_pareto ?widen_on_overflow
                  (P.with_repeater_fraction p 1.0)
              in
              ignore
                (Ir_core.Rank_grid.build_plane g (Ir_core.Rank_grid.point ()));
              match
                Ir_core.Rank_grid.query g (Ir_core.Rank_grid.point ~fraction:f ())
              with
              | Some (o, _) -> o
              | None ->
                  fst (Ir_core.Rank_grid.compute ?max_pareto ?widen_on_overflow p)
          );
        ]
      in
      let (reference, _), _, ladder =
        work (fun () ->
            Ir_core.Rank_grid.compute ?max_pareto ?widen_on_overflow p)
      in
      if c.hc_ladder then
        Alcotest.(check bool) (c.hc_name ^ ": widens") true
          (fst ladder > 0);
      if max_pareto = None && widen_on_overflow = None then
        Alcotest.(check bool) (c.hc_name ^ ": Rank.compute") true
          (Ir_core.Outcome.equal reference (Ir_core.Rank.compute p));
      List.iter
        (fun (name, run) ->
          let o, work, ladder' = work run in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s outcome" c.hc_name name)
            true
            (Ir_core.Outcome.equal reference o);
          if c.hc_ladder then
            Alcotest.(check (pair int int))
              (Printf.sprintf "%s: %s widen retries, truncations" c.hc_name
                 name)
              ladder ladder';
          if c.hc_nofit then
            Alcotest.(check int)
              (Printf.sprintf "%s: %s states + inserts" c.hc_name name)
              0 work)
        drivers;
      if c.hc_nofit then
        Alcotest.(check bool) (c.hc_name ^ ": unassignable") false
          reference.Ir_core.Outcome.assignable;
      if c.hc_brute && reference.Ir_core.Outcome.exact then begin
        let brute = Ir_core.Rank_brute.compute p in
        Alcotest.(check int) (c.hc_name ^ ": brute rank")
          brute.Ir_core.Outcome.rank_wires reference.Ir_core.Outcome.rank_wires;
        Alcotest.(check bool) (c.hc_name ^ ": brute assignability")
          brute.Ir_core.Outcome.assignable reference.Ir_core.Outcome.assignable
      end)
    (hard_corpus ());
  Ir_obs.reset ()

(* Served = cold on the hard corpus, at the codec: every case's first
   rung and its widened tables decode to tables every reader sees as the
   originals, at the case's fraction and at half of it. *)
let test_hard_corpus_round_trip () =
  List.iter
    (fun c ->
      let p = c.hc_problem in
      let f = (P.arch p).Ir_ia.Arch.design.Ir_tech.Design.repeater_fraction in
      let first = Ir_core.Rank_dp.build_tables ?max_pareto:c.hc_max_pareto p in
      List.iter
        (fun (rung, t) ->
          match round_trip_failure ~fractions:[ f; 0.5 *. f ] p t with
          | None -> ()
          | Some why -> Alcotest.failf "%s, %s: %s" c.hc_name rung why)
        [
          ("first rung", first);
          ( "widened",
            Ir_core.Rank_dp.widen_tables ?widen_on_overflow:c.hc_widen first );
        ])
    (hard_corpus ())

let () =
  Alcotest.run "core"
    [
      ("outcome", [ Alcotest.test_case "basics" `Quick test_outcome ]);
      ( "rank_dp",
        [
          Alcotest.test_case "all meet" `Quick test_dp_all_meet;
          Alcotest.test_case "zero budget" `Quick test_dp_zero_budget;
          Alcotest.test_case "unassignable" `Quick test_dp_unassignable;
          Alcotest.test_case "binary vs exhaustive search" `Slow
            test_dp_binary_vs_exhaustive;
          Alcotest.test_case "prebuilt tables reuse" `Quick test_tables_reuse;
          Alcotest.test_case "row-m overflow is gone" `Quick
            test_row_m_overflow_gone;
          prop_untruncated_is_exact;
          Alcotest.test_case "pareto overflow widens to exact" `Quick
            test_pareto_overflow_widens;
          Alcotest.test_case "pareto truncation changes rank" `Quick
            test_pareto_truncation_changes_rank;
          Alcotest.test_case "counter-budget canary" `Quick
            test_counter_canary;
          prop_hinted_search_matches_cold;
          prop_default_search_exact;
          prop_binary_matches_exhaustive;
          prop_dp_equals_brute;
          prop_feasible_boundary_monotone;
          prop_rank_monotone_in_budget;
          prop_rank_monotone_in_k;
          prop_search_budgets_matches_individual;
          Alcotest.test_case "stepped builder = monolithic build" `Quick
            test_builder_matches_build;
          Alcotest.test_case "builder finish guard" `Quick
            test_builder_finish_early;
          Alcotest.test_case "walking instance ladder" `Quick
            test_walking_ladder;
          Alcotest.test_case "builder rejects width < 1" `Quick
            test_builder_rejects_zero_width;
          prop_ladder_matches_reference;
          Alcotest.test_case "table codec fuzz" `Quick test_decode_fuzz;
          Alcotest.test_case "table codec rejects a row-m front" `Quick
            test_decode_row_m_front;
          Alcotest.test_case "table codec names each violation" `Quick
            test_decode_named_errors;
          prop_decode_validator_fuzz;
          prop_codec_round_trip;
          Alcotest.test_case "phase-A tables are byte-stable" `Quick
            test_tables_byte_stable;
        ] );
      ( "grid",
        [
          Alcotest.test_case "R column = search_budgets" `Quick
            test_grid_budgets_column;
          Alcotest.test_case "witness identity" `Quick
            test_grid_witness_identity;
          Alcotest.test_case "with_materials = fresh construction" `Quick
            test_with_materials_equals_fresh;
          prop_grid_matches_per_point;
          prop_eval_batch_matches_compute;
          Alcotest.test_case
            "truncated plane answers its own budget only" `Quick
            test_grid_truncated_plane_own_budget;
          Alcotest.test_case "build_plane answers no point" `Quick
            test_grid_build_plane_answers_nothing;
          Alcotest.test_case "adopt refuses truncated tables" `Quick
            test_grid_adopt_refuses_truncated;
          Alcotest.test_case "adopt refuses a resident plane" `Quick
            test_grid_adopt_refuses_resident;
          Alcotest.test_case "hard corpus: every driver agrees" `Quick
            test_hard_corpus;
          Alcotest.test_case "hard corpus: table codec round trip" `Quick
            test_hard_corpus_round_trip;
        ] );
      ( "front",
        [
          Alcotest.test_case "basics" `Quick test_front_basics;
          Alcotest.test_case "adversarial mirrored builds" `Quick
            test_front_mirror_adversarial;
          Alcotest.test_case "jump: a break inside a screened run" `Quick
            test_jump_break_inside_run;
          Alcotest.test_case "range skip: filter end, truncation, break" `Quick
            test_range_skip_rare_paths;
          prop_front_insert_matches_reference;
          prop_front_multi_cell_matches_reference;
          prop_front_restore_round_trip;
          Alcotest.test_case "slices: one per non-empty cell" `Quick
            test_front_slices;
          prop_front_mirror_build;
          prop_front_mirror_build_4pair;
          prop_front_mirror_full_budget;
          prop_screen_sound;
        ] );
      ( "rank_greedy",
        [
          Alcotest.test_case "baseline sanity" `Quick test_greedy_baseline_sane;
          prop_greedy_le_dp;
        ] );
      ( "figure 2",
        [ Alcotest.test_case "counterexample" `Quick test_figure2 ] );
      ( "rank_exact",
        [
          Alcotest.test_case "smoke" `Quick test_exact_dp_smoke;
          Alcotest.test_case "size guard" `Quick test_exact_dp_guard;
          prop_exact_le_dp;
        ] );
      ( "rank_threshold",
        [
          Alcotest.test_case "baseline" `Quick test_threshold_baseline;
          prop_threshold_le_dp;
        ] );
      ( "noise-aware rank",
        [ Alcotest.test_case "limits and shielding" `Quick
            test_noise_limited_rank ] );
      ( "assignment",
        [
          Alcotest.test_case "baseline witness" `Quick
            test_assignment_witness;
          prop_witness_checks;
        ] );
      ( "facade",
        [ Alcotest.test_case "of_design" `Quick test_rank_facade ] );
    ]
