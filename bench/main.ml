(* Benchmark & reproduction harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (DESIGN.md's experiment index E1-E9) with paper-vs-measured columns.
   Part 2 adds ablations over the reproduction's own design choices
   (bunch size, capacitance model, Pareto width, target model).
   Part 3 runs Bechamel micro-benchmarks of the core computations,
   including the paper's Section 5.2 runtime claim (rank in < 200 s —
   here: well under a second per point).

   The identity checks (jobs=1 vs jobs=N, shared vs unshared grids, the
   power budget, serving) are tests under test/; timings of the engine
   and serve tier are recorded by perfbench/.

   Run with:  dune exec bench/main.exe *)

let section title = Format.printf "@.==== %s ====@.@." title

(* ---------------------------------------------------------------------- *)
(* Part 1: experiment regeneration                                         *)
(* ---------------------------------------------------------------------- *)

let experiment_tables () =
  section "E7: Tables 2/3 (baseline and technology parameters)";
  List.iter
    (fun n ->
      Format.printf "%a@.@." Ir_tech.Stack.pp_table3 (Ir_tech.Stack.of_node n))
    [ Ir_tech.Node.N180; Ir_tech.Node.N130; Ir_tech.Node.N90 ];
  Format.printf
    "Baseline (Table 2): k=3.9, Miller=2.0, repeater fraction=0.4,@.2 \
     semi-global + 1 global layer-pairs, 500 MHz target clock.@."

(* Per-sweep signature for the scaling curve's identity checks: the rank
   and the exactness flag of every row.  (Normalized ranks derive from
   rank_wires, so this is the full result identity.) *)
let sweep_sig (s : Ir_sweep.Table4.sweep) =
  List.map
    (fun (r : Ir_sweep.Table4.row) ->
      ( r.param,
        r.outcome.Ir_core.Outcome.rank_wires,
        r.outcome.Ir_core.Outcome.exact ))
    s.rows

(* Snapshot for the identity comparison: everything except the
   [exec/sched/] namespace, whose counters (steals, clamp events) count
   the schedule itself and legitimately differ between worker counts. *)
let identity_snapshot () =
  Ir_obs.filter_out ~prefix:"exec/sched/" (Ir_obs.snapshot ())

let experiment_table4 () =
  section "E1-E4: Table 4 (rank vs K, M, C, R; 130nm, 1M gates)";
  let sweeps = Ir_sweep.Table4.all () in
  List.iter
    (fun s ->
      Ir_sweep.Report.sweep_table s Format.std_formatter;
      Format.printf
        "correlation with published column: %.4f; max |measured - paper| = \
         %.4f@.@."
        (Ir_sweep.Report.correlation (Ir_sweep.Table4.normalized s)
           s.Ir_sweep.Table4.paper)
        (Ir_sweep.Report.max_abs_delta
           (Ir_sweep.Table4.normalized s)
           s.Ir_sweep.Table4.paper))
    sweeps;
  sweeps

(* The scaling curve's workload: Table 4 on a 100k-gate 130nm design,
   a second or two per point. *)
let scaling_config =
  {
    Ir_sweep.Table4.default_config with
    design = Ir_core.Rank.baseline_design ~gates:100_000 Ir_tech.Node.N130;
  }

(* Worker counts for the scaling curve: every count up to 8, then powers
   of two, then the core count itself — dense where the knee usually
   lives, sparse where extra points just repeat the plateau. *)
let scaling_jobs_list hw =
  if hw <= 8 then List.init hw (fun i -> i + 1)
  else
    let rec pows acc p = if p >= hw then acc else pows (p :: acc) (2 * p) in
    List.sort_uniq compare ((hw :: List.init 8 (fun i -> i + 1)) @ pows [] 16)

(* Returns the worker counts whose point took longer than jobs=1: a
   parallel regression, which [main.exe scaling] turns into exit 1. *)
let experiment_scaling () =
  section
    (Printf.sprintf "Scaling: table4 sweep at jobs = 1..%d"
       (Ir_exec.hardware_jobs ()));
  let config = scaling_config in
  let hw = Ir_exec.hardware_jobs () in
  let jobs_list = scaling_jobs_list hw in
  (* One point per worker count, identical workload; every point is
     checked for full result identity (ranks + exact flags) and
     scheduler-filtered counter identity against the jobs=1 baseline.
     [with_pool_heap] holds the pool's raised minor heap across the whole
     burst so per-point Gc.set churn stays out of the timings. *)
  let baseline = ref None in
  let points =
    Ir_exec.with_pool_heap @@ fun () ->
    List.map
      (fun jobs ->
        Ir_obs.reset ();
        let t0 = Ir_exec.now () in
        let sweeps = Ir_sweep.Table4.all ~jobs ~config () in
        let dt = Ir_exec.now () -. t0 in
        let sigs = List.map sweep_sig sweeps in
        let snap = identity_snapshot () in
        (match !baseline with
        | None -> baseline := Some (sigs, snap)
        | Some (sigs1, snap1) ->
            if sigs <> sigs1 then
              failwith
                (Printf.sprintf
                   "scaling: jobs=%d ranks/exact flags differ from jobs=1"
                   jobs);
            if
              not
                (snap1.Ir_obs.counters = snap.Ir_obs.counters
                && snap1.Ir_obs.gauges = snap.Ir_obs.gauges)
            then
              failwith
                (Printf.sprintf
                   "scaling: jobs=%d counters/gauges differ from jobs=1" jobs));
        (jobs, dt))
      jobs_list
  in
  Ir_obs.reset ();
  let jobs1 = List.assoc 1 points in
  Ir_sweep.Report.table
    ~header:[ "jobs"; "wall time"; "speedup"; "parallel regression" ]
    ~rows:
      (List.map
         (fun (j, s) ->
           [
             string_of_int j;
             Printf.sprintf "%.2f s" s;
             Printf.sprintf "%.2fx" (jobs1 /. Float.max 1e-9 s);
             (if j = 1 then "-" else if s > jobs1 then "YES" else "no");
           ])
         points)
    Format.std_formatter;
  if hw <= 1 then
    Format.printf
      "@.Single-core hardware: only the jobs=1 point exists, so there is no \
       parallel point to compare (skipped, not a regression).@."
  else
    Format.printf "@.All %d points rank- and counter-identical to jobs=1.@."
      (List.length points);
  List.filter_map
    (fun (j, s) -> if j > 1 && s > jobs1 then Some j else None)
    points

let experiment_figure2 () =
  section "E5: Figure 2 (suboptimality of greedy assignment)";
  let s = Ir_sweep.Figure2.scenario () in
  Format.printf "greedy top-down : %a   (paper: rank 2)@."
    Ir_core.Outcome.pp_human s.greedy;
  Format.printf "optimal DP      : %a   (paper: rank 4)@."
    Ir_core.Outcome.pp_human s.optimal;
  Format.printf "paper-literal DP: %a@." Ir_core.Outcome.pp_human s.exact

let experiment_headline () =
  section "E6: headline equivalence (38% K cut vs 42% Miller cut)";
  let r =
    Ir_sweep.Equivalence.matching_miller_reduction
      ~k_reduction:Ir_sweep.Paper_data.headline_k_reduction ()
  in
  Format.printf
    "K reduced 38%% (3.9 -> 2.42): rank %.6f@.Matching Miller reduction: \
     %.1f%% (rank %.6f); paper says 42.5%%.@."
    r.k_rank (100.0 *. r.m_reduction) r.m_rank

let experiment_cross_node () =
  section "E9: unreported cross-node baselines (Section 5.2)";
  let cells =
    Ir_sweep.Cross_node.run
      ~matrix:
        [
          (Ir_tech.Node.N180, 1_000_000);
          (Ir_tech.Node.N130, 1_000_000);
          (Ir_tech.Node.N130, 4_000_000);
          (Ir_tech.Node.N90, 4_000_000);
          (Ir_tech.Node.N90, 10_000_000);
        ]
      ()
  in
  Ir_sweep.Report.cross_node_table cells Format.std_formatter;
  (* A 10M-gate design does not fit the baseline 4-pair architecture at
     all (Definition 3, rank 0) — the paper's footnote 1 point that via
     blockage and wiring demand drive layer count.  The 90nm stack has
     the layers for a third semi-global pair; with it the design
     routes. *)
  Format.printf
    "@.Same 90nm/10M design with a third semi-global pair (8-layer \
     stack):@.";
  let structure =
    { Ir_ia.Arch.local_pairs = 1; semi_global_pairs = 3; global_pairs = 1 }
  in
  Ir_sweep.Report.cross_node_table
    (Ir_sweep.Cross_node.run ~structure
       ~matrix:[ (Ir_tech.Node.N90, 10_000_000) ] ())
    Format.std_formatter;
  cells

let experiment_runtime_claim () =
  section "E8: runtime claim (paper: < 200 s per rank on a 2003 Xeon)";
  let rows =
    List.map
      (fun gates ->
        let design = Ir_core.Rank.baseline_design ~gates Ir_tech.Node.N130 in
        let problem = Ir_core.Rank.problem_of_design design in
        let t0 = Sys.time () in
        let o = Ir_core.Rank.compute problem in
        let dt = Sys.time () -. t0 in
        [
          string_of_int gates;
          string_of_int (Ir_assign.Problem.n_bunches problem);
          Printf.sprintf "%.6f" (Ir_core.Outcome.normalized o);
          (if o.assignable then "yes" else "no (rank 0)");
          Printf.sprintf "%.3f s" dt;
        ])
      [ 100_000; 1_000_000; 4_000_000; 10_000_000 ]
  in
  Ir_sweep.Report.table
    ~header:
      [ "gates"; "bunches"; "normalized rank"; "assignable"; "rank time" ]
    ~rows Format.std_formatter

(* ---------------------------------------------------------------------- *)
(* Part 2: ablations                                                       *)
(* ---------------------------------------------------------------------- *)

let baseline_problem ?(bunch_size = 10000) ?materials () =
  let design = Ir_core.Rank.baseline_design Ir_tech.Node.N130 in
  let arch = Ir_ia.Arch.make ?materials ~design () in
  let wld =
    Ir_wld.Davis.generate
      (Ir_wld.Davis.params ~gates:design.gates ~rent_p:design.rent_p
         ~fan_out:design.fan_out ())
  in
  Ir_assign.Problem.make ~bunch_size ~arch ~wld ()

let ablation_bunch_size () =
  section "Ablation: WLD bunch size (paper Section 5.1, error <= bunch size)";
  let rows =
    List.map
      (fun bunch_size ->
        let problem = baseline_problem ~bunch_size () in
        let t0 = Sys.time () in
        let o = Ir_core.Rank.compute problem in
        let dt = Sys.time () -. t0 in
        [
          string_of_int bunch_size;
          string_of_int (Ir_assign.Problem.n_bunches problem);
          Printf.sprintf "%.6f" (Ir_core.Outcome.normalized o);
          string_of_int o.rank_wires;
          Printf.sprintf "%.3f s" dt;
        ])
      [ 40_000; 20_000; 10_000; 5_000; 2_000; 1_000 ]
  in
  Ir_sweep.Report.table
    ~header:[ "bunch size"; "bunches"; "normalized"; "rank (wires)"; "time" ]
    ~rows Format.std_formatter;
  Format.printf
    "@.(The paper runs bunch size 10000; rank changes stay within one \
     bunch, as Section 5.1 argues.)@."

let ablation_binning () =
  section "Ablation: binning (footnote 7) on top of bunching";
  let design = Ir_core.Rank.baseline_design Ir_tech.Node.N130 in
  let arch = Ir_ia.Arch.make ~design () in
  let wld =
    Ir_wld.Davis.generate
      (Ir_wld.Davis.params ~gates:design.gates ~rent_p:design.rent_p
         ~fan_out:design.fan_out ())
  in
  let rows =
    List.map
      (fun group ->
        let coarse = if group = 1 then wld else Ir_wld.Coarsen.bin ~group wld in
        let problem = Ir_assign.Problem.make ~arch ~wld:coarse () in
        let t0 = Sys.time () in
        let o = Ir_core.Rank.compute problem in
        let dt = Sys.time () -. t0 in
        [
          string_of_int group;
          string_of_int (Ir_assign.Problem.n_bunches problem);
          Printf.sprintf "%.6f" (Ir_core.Outcome.normalized o);
          Printf.sprintf "%.3f s" dt;
        ])
      [ 1; 2; 4; 8 ]
  in
  Ir_sweep.Report.table
    ~header:[ "bin group"; "bunches"; "normalized"; "time" ]
    ~rows Format.std_formatter

let ablation_cap_model () =
  section "Ablation: capacitance model (the paper implies coupling-only)";
  let rows =
    List.map
      (fun (name, model) ->
        let materials = Ir_ia.Materials.v ~cap_model:model () in
        let problem = baseline_problem ~materials () in
        let o = Ir_core.Rank.compute problem in
        let m1 =
          let mat = Ir_ia.Materials.v ~cap_model:model ~miller:1.0 () in
          Ir_core.Rank.compute (baseline_problem ~materials:mat ())
        in
        [
          name;
          Printf.sprintf "%.6f" (Ir_core.Outcome.normalized o);
          Printf.sprintf "%.6f" (Ir_core.Outcome.normalized m1);
          Printf.sprintf "%.4f"
            (Ir_core.Outcome.normalized m1 /. Ir_core.Outcome.normalized o);
        ])
      [
        ("coupling-only (paper)", Ir_rc.Capacitance.Coupling_only);
        ("sakurai", Ir_rc.Capacitance.Sakurai);
        ("plate+fringe", Ir_rc.Capacitance.Parallel_plate_fringe);
        ("parallel plate", Ir_rc.Capacitance.Parallel_plate);
      ]
  in
  Ir_sweep.Report.table
    ~header:[ "model"; "rank @ M=2"; "rank @ M=1"; "M-sensitivity" ]
    ~rows Format.std_formatter;
  Format.printf
    "@.(The paper's M column requires rank(M=1)/rank(M=2) ~ 1.39 = \
     sqrt(2); only the coupling-only model delivers it.)@."

let ablation_greedy_gap () =
  section "Ablation: DP optimality gain over greedy (full baseline)";
  let problem = baseline_problem () in
  let dp = Ir_core.Rank.compute problem in
  let g = Ir_core.Rank_greedy.compute problem in
  Format.printf "optimal DP : %a@." Ir_core.Outcome.pp_human dp;
  Format.printf "greedy     : %a@." Ir_core.Outcome.pp_human g;
  Format.printf "gap        : %d wires (%.2f%%)@."
    (dp.rank_wires - g.rank_wires)
    (100.0
    *. float_of_int (dp.rank_wires - g.rank_wires)
    /. float_of_int (max 1 dp.rank_wires))

let ablation_pareto () =
  section "Ablation: Pareto-set width of the optimized DP";
  let problem = baseline_problem () in
  let rows =
    List.map
      (fun width ->
        let t0 = Sys.time () in
        (* Widening would retry every truncated width at a larger one,
           making all rows identical — this ablation wants the fixed-width
           behaviour. *)
        let o, _ =
          Ir_core.Rank_grid.compute ~max_pareto:width
            ~widen_on_overflow:false problem
        in
        let dt = Sys.time () -. t0 in
        [
          string_of_int width;
          Printf.sprintf "%.6f" (Ir_core.Outcome.normalized o);
          Printf.sprintf "%.3f s" dt;
        ])
      [ 1; 2; 4; 8; 16 ]
  in
  Ir_sweep.Report.table ~header:[ "max pareto"; "normalized"; "time" ] ~rows
    Format.std_formatter

let ablation_target_model () =
  section "Ablation: target-delay requirement model (paper Section 6)";
  let design = Ir_core.Rank.baseline_design Ir_tech.Node.N130 in
  let rows =
    List.map
      (fun (name, model) ->
        let o = Ir_core.Rank.of_design ~target_model:model design in
        [ name; Printf.sprintf "%.6f" (Ir_core.Outcome.normalized o) ])
      [
        ("linear (paper)", Ir_delay.Target.Linear);
        ("affine, 50ps floor", Ir_delay.Target.Affine { floor = 50e-12 });
        ( "quadratic blend 0.5",
          Ir_delay.Target.Quadratic_blend { weight = 0.5 } );
        ("fully quadratic", Ir_delay.Target.Quadratic_blend { weight = 1.0 });
      ]
  in
  Ir_sweep.Report.table ~header:[ "target model"; "normalized" ] ~rows
    Format.std_formatter

let ablation_via_model () =
  section "Ablation: via-blockage model (pad vs Chen-Davis-Meindl track)";
  let design = Ir_core.Rank.baseline_design Ir_tech.Node.N130 in
  let wld =
    Ir_wld.Davis.generate
      (Ir_wld.Davis.params ~gates:design.gates ~rent_p:design.rent_p
         ~fan_out:design.fan_out ())
  in
  let rows =
    List.map
      (fun (name, via_model) ->
        let arch = Ir_ia.Arch.make ~via_model ~design () in
        let problem = Ir_assign.Problem.make ~arch ~wld () in
        let o = Ir_core.Rank.compute problem in
        [
          name;
          Printf.sprintf "%.6f" (Ir_core.Outcome.normalized o);
          (if o.assignable then "yes" else "no");
        ])
      [ ("pad", Ir_ia.Via_model.Pad); ("track", Ir_ia.Via_model.Track) ]
  in
  Ir_sweep.Report.table ~header:[ "via model"; "normalized"; "assignable" ]
    ~rows Format.std_formatter;
  let g = (Ir_tech.Stack.of_node Ir_tech.Node.N130).semi_global in
  Format.printf "@.(Track model charges %.1fx the pad area per via on the 130nm Mx \
geometry.)@."
    (Ir_ia.Via_model.ratio g)

let comparison_algorithms () =
  section "Comparison: assignment policies on the full baseline";
  let problem = baseline_problem () in
  let rows =
    List.map
      (fun (name, f) ->
        let t0 = Sys.time () in
        let o : Ir_core.Outcome.t = f problem in
        let dt = Sys.time () -. t0 in
        [
          name;
          Printf.sprintf "%.6f" (Ir_core.Outcome.normalized o);
          string_of_int o.rank_wires;
          Printf.sprintf "%.3f s" dt;
        ])
      [
        ("optimal DP (the metric)", fun p -> Ir_core.Rank.compute p);
        ("greedy top-down (Fig. 2)", Ir_core.Rank_greedy.compute);
        ("length thresholds (SLIP'00)", fun p -> Ir_core.Rank_threshold.compute p);
      ]
  in
  Ir_sweep.Report.table
    ~header:[ "policy"; "normalized"; "rank (wires)"; "time" ]
    ~rows Format.std_formatter

let comparison_ntier () =
  section "Comparison: n-tier generated architecture vs Table-3 stack";
  let design = Ir_core.Rank.baseline_design Ir_tech.Node.N130 in
  let rows =
    List.map
      (fun tiers ->
        let `Ntier n, `Baseline b =
          Ir_ext.Ntier.compare_with_baseline ~tiers design
        in
        [
          string_of_int tiers;
          Printf.sprintf "%.6f" (Ir_core.Outcome.normalized n);
          Printf.sprintf "%.6f" (Ir_core.Outcome.normalized b);
        ])
      [ 3; 4; 5 ]
  in
  Ir_sweep.Report.table
    ~header:[ "tiers"; "n-tier rank"; "Table-3 baseline rank" ]
    ~rows Format.std_formatter

let study_noise () =
  section "Extension: noise-aware rank (peak coupling noise budget)";
  let design = Ir_core.Rank.baseline_design Ir_tech.Node.N130 in
  let wld =
    Ir_wld.Davis.generate
      (Ir_wld.Davis.params ~gates:design.gates ~rent_p:design.rent_p
         ~fan_out:design.fan_out ())
  in
  let rank ?noise_limit miller =
    let arch =
      Ir_ia.Arch.make ~materials:(Ir_ia.Materials.v ~miller ()) ~design ()
    in
    Ir_core.Outcome.normalized
      (Ir_core.Rank.compute
         (Ir_assign.Problem.make ?noise_limit ~arch ~wld ()))
  in
  let rows =
    List.map
      (fun (name, noise_limit) ->
        [
          name;
          Printf.sprintf "%.6f" (rank ?noise_limit 2.0);
          Printf.sprintf "%.6f" (rank ?noise_limit 1.0);
        ])
      [
        ("none", None); ("30% Vdd", Some 0.3); ("25% Vdd", Some 0.25);
        ("20% Vdd", Some 0.2);
      ]
  in
  Ir_sweep.Report.table
    ~header:[ "noise budget"; "rank (M=2)"; "rank (M=1, shielded)" ]
    ~rows Format.std_formatter;
  Format.printf
    "@.(Shielding — the paper's footnote 8 route to M=1 — also silences \
aggressors, so shielded architectures keep their rank under noise \
budgets that zero the unshielded ones.)@."

let study_layers () =
  section "Extension: minimum layer-pairs for assignability / rank targets";
  let report gates =
    let design = Ir_core.Rank.baseline_design ~gates Ir_tech.Node.N130 in
    (match Ir_ext.Layers.min_pairs_for_assignability design with
    | Ok (step, steps) ->
        Format.printf
          "%d gates: WLD fits from %d sg + %d gl pairs (%d structures tried)@."
          gates step.structure.Ir_ia.Arch.semi_global_pairs
          step.structure.Ir_ia.Arch.global_pairs (List.length steps)
    | Error e -> Format.printf "%d gates: %s@." gates e);
    match Ir_ext.Layers.min_pairs_for_rank ~target:0.35 design with
    | Ok (step, _) ->
        Format.printf
          "%d gates: rank 0.35 needs %d sg + %d gl pairs (got %.4f)@." gates
          step.structure.Ir_ia.Arch.semi_global_pairs
          step.structure.Ir_ia.Arch.global_pairs
          (Ir_core.Outcome.normalized step.outcome)
    | Error e -> Format.printf "%d gates: rank 0.35: %s@." gates e
  in
  report 1_000_000;
  report 4_000_000

let study_anneal () =
  section "Extension: annealed direct optimization (Section 6, continuous)";
  let rows =
    List.map
      (fun ghz ->
        let design =
          Ir_tech.Design.v ~node:Ir_tech.Node.N130 ~gates:200_000
            ~clock:(ghz *. 1e9) ()
        in
        let r = Ir_ext.Anneal.optimize ~steps:80 ~bunch_size:1000 design in
        [
          Printf.sprintf "%.1f GHz" ghz;
          Printf.sprintf "%.4f" (Ir_core.Outcome.normalized r.initial);
          Printf.sprintf "%.4f" (Ir_core.Outcome.normalized r.outcome);
        ])
      [ 0.5; 1.0; 1.5; 2.0 ]
  in
  Ir_sweep.Report.table
    ~header:[ "clock"; "Table-3 baseline"; "annealed geometry" ]
    ~rows Format.std_formatter;
  Format.printf
    "@.(At 0.5 GHz the metric alone rewards degenerate thin/sparse wiring \
     and annealing@.saturates rank 1.0 — the optimizer-side view of the \
     paper's co-optimization@.conclusion; see Ir_ext.Anneal's \
     documentation.)@."

let study_variation () =
  section "Extension: rank sensitivity to calibration uncertainty";
  let design = Ir_core.Rank.baseline_design Ir_tech.Node.N130 in
  let s = Ir_ext.Variation.run ~samples:25 design in
  Format.printf
    "5%% noise on k, Miller, rho, r_o, c_o (25 seeded draws):@.";
  Format.printf
    "nominal %.4f, mean %.4f, std %.4f, range [%.4f, %.4f]@." s.nominal
    s.mean s.std s.min s.max;
  Format.printf
    "(The Table 4 trends span ~0.1-0.18 of normalized rank; parameter \
     uncertainty@.of this magnitude moves the metric by far less.)@."

let study_netlist () =
  section "Extension: Davis WLD validated against synthetic placed circuits";
  let rows =
    List.map
      (fun gates ->
        let c = Ir_netlist.Circuit.generate ~gates () in
        let v = Ir_netlist.Extract.validate_against_davis c in
        [
          string_of_int v.gates;
          Printf.sprintf "%.2f" v.measured_mean;
          Printf.sprintf "%.2f" v.davis_mean;
          Printf.sprintf "%.4f" v.measured_tail;
          Printf.sprintf "%.4f" v.davis_tail;
        ])
      [ 16_384; 65_536; 262_144 ]
  in
  Ir_sweep.Report.table
    ~header:
      [ "gates"; "mean (measured)"; "mean (Davis)"; "tail (measured)";
        "tail (Davis)" ]
    ~rows Format.std_formatter;
  Format.printf
    "@.(Rent-rule synthetic circuits, hierarchy = placement, Manhattan \
     lengths; the@.closed form the paper adopts in footnote 2 tracks the \
     measured shape.)@."

(* The committed results/table4_*.csv and results/cross_node.csv; the
   runtest rules in results/dune regenerate and diff them. *)
let export_artifacts sweeps cells =
  section "Artifacts";
  let dir = "results" in
  (match Ir_sweep.Export.write_sweeps ~dir sweeps with
  | Ok paths -> List.iter (Format.printf "wrote %s@.") paths
  | Error e -> Format.printf "sweep export failed: %s@." e);
  match Ir_sweep.Export.write_cross ~dir cells with
  | Ok path -> Format.printf "wrote %s@." path
  | Error e -> Format.printf "cross export failed: %s@." e

(* ---------------------------------------------------------------------- *)
(* Part 3: Bechamel micro-benchmarks                                       *)
(* ---------------------------------------------------------------------- *)

let bechamel_tests () =
  let open Bechamel in
  let small gates bunch_size =
    let design = Ir_core.Rank.baseline_design ~gates Ir_tech.Node.N130 in
    let arch = Ir_ia.Arch.make ~design () in
    let wld =
      Ir_wld.Davis.generate
        (Ir_wld.Davis.params ~gates ~rent_p:0.6 ~fan_out:3.0 ())
    in
    Ir_assign.Problem.make ~bunch_size ~arch ~wld ()
  in
  let p_small = small 100_000 2_000 in
  let p_full = small 1_000_000 10_000 in
  let design_1m = Ir_core.Rank.baseline_design Ir_tech.Node.N130 in
  let wld_params = Ir_wld.Davis.params ~gates:1_000_000 () in
  let arch_1m = Ir_ia.Arch.make ~design:design_1m () in
  let wld_1m = Ir_wld.Davis.generate wld_params in
  [
    Test.make ~name:"wld/davis-generate-1M"
      (Staged.stage (fun () -> ignore (Ir_wld.Davis.generate wld_params)));
    Test.make ~name:"problem/build-tables-1M"
      (Staged.stage (fun () ->
           ignore
             (Ir_assign.Problem.make ~bunch_size:10000 ~arch:arch_1m
                ~wld:wld_1m ())));
    Test.make ~name:"rank/dp-100k-gates"
      (Staged.stage (fun () -> ignore (Ir_core.Rank.compute p_small)));
    Test.make ~name:"rank/dp-1M-gates"
      (Staged.stage (fun () -> ignore (Ir_core.Rank.compute p_full)));
    Test.make ~name:"rank/greedy-1M-gates"
      (Staged.stage (fun () -> ignore (Ir_core.Rank_greedy.compute p_full)));
    Test.make ~name:"assign/greedy-fill-1M"
      (Staged.stage (fun () ->
           ignore
             (Ir_assign.Greedy_fill.fits p_full
                (Ir_assign.Greedy_fill.context ~from_bunch:0 ~top_pair:0 ()))));
  ]

let run_bechamel () =
  section "Micro-benchmarks (Bechamel; time per run)";
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None () in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"ia_rank" (bechamel_tests ()))
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let per_run =
          match Analyze.OLS.estimates ols_result with
          | Some (e :: _) -> e
          | _ -> nan
        in
        let r2 =
          match Analyze.OLS.r_square ols_result with
          | Some r -> r
          | None -> nan
        in
        ( name,
          [
            name;
            (if per_run > 1e9 then Printf.sprintf "%.3f s" (per_run /. 1e9)
             else if per_run > 1e6 then
               Printf.sprintf "%.3f ms" (per_run /. 1e6)
             else Printf.sprintf "%.0f ns" per_run);
            Printf.sprintf "%.4f" r2;
          ] )
        :: acc)
      results []
  in
  let rows =
    List.sort (fun (a, _) (b, _) -> String.compare a b) rows |> List.map snd
  in
  Ir_sweep.Report.table ~header:[ "benchmark"; "time/run"; "r^2" ] ~rows
    Format.std_formatter

(* Section selector: `dune exec bench/main.exe` runs the full harness;
   `-- scaling` runs only the jobs=1..ncores scaling curve (the CI
   parallel-regression gate: exit 1 when a jobs>1 point is slower than
   jobs=1); `-- micro` runs only the Bechamel micro-benchmarks. *)
let () =
  let what =
    match Array.to_list Sys.argv with
    | [ _ ] -> `All
    | [ _; "scaling" ] -> `Scaling
    | [ _; "micro" ] -> `Micro
    | _ ->
        prerr_endline "usage: main.exe [scaling|micro]";
        exit 2
  in
  let t0 = Ir_exec.now () in
  (match what with
  | `Micro -> run_bechamel ()
  | `Scaling -> (
      match experiment_scaling () with
      | [] -> ()
      | slow ->
          Format.eprintf "parallel regression at jobs=%s@."
            (String.concat "," (List.map string_of_int slow));
          exit 1)
  | `All ->
      experiment_tables ();
      let sweeps = experiment_table4 () in
      experiment_figure2 ();
      experiment_headline ();
      let cells = experiment_cross_node () in
      export_artifacts sweeps cells;
      experiment_runtime_claim ();
      ablation_bunch_size ();
      ablation_binning ();
      ablation_cap_model ();
      ablation_greedy_gap ();
      ablation_pareto ();
      ablation_target_model ();
      ablation_via_model ();
      comparison_algorithms ();
      comparison_ntier ();
      study_noise ();
      study_layers ();
      study_anneal ();
      study_variation ();
      study_netlist ();
      run_bechamel ());
  Format.printf "@.total harness wall time: %.1f s@." (Ir_exec.now () -. t0)
