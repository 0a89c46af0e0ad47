(* Tests for the experiment harness: Table 4 sweeps (scaled down), the
   headline equivalence, cross-node runs, paper data and reporting. *)

open Helpers

module P = Ir_assign.Problem

let small_config =
  (* A scaled-down baseline keeps each sweep point ~milliseconds. *)
  let design =
    Ir_tech.Design.v ~node:Ir_tech.Node.N130 ~gates:40_000 ()
  in
  { Ir_sweep.Table4.default_config with design; bunch_size = 500 }

let normalized_ranks sweep = List.map snd (Ir_sweep.Table4.normalized sweep)

let assert_monotone ~dir name xs =
  let ok = ref true in
  List.iteri
    (fun i x ->
      if i > 0 then
        let prev = List.nth xs (i - 1) in
        let good =
          match dir with
          | `Nonincreasing -> x <= prev +. 1e-12
          | `Nondecreasing -> x >= prev -. 1e-12
        in
        if not good then ok := false)
    xs;
  Alcotest.(check bool) (name ^ " monotone") true !ok

let test_k_sweep () =
  let s = Ir_sweep.Table4.k_sweep ~config:small_config () in
  Alcotest.(check int) "22 grid points" 22 (List.length s.rows);
  (* K decreases along the sweep; rank must not decrease. *)
  assert_monotone ~dir:`Nondecreasing "K" (normalized_ranks s);
  let first = List.hd (normalized_ranks s) in
  let last = List.nth (normalized_ranks s) 21 in
  Alcotest.(check bool) "low-k clearly better" true (last > first *. 1.15)

let test_m_sweep () =
  let s = Ir_sweep.Table4.m_sweep ~config:small_config () in
  Alcotest.(check int) "21 grid points" 21 (List.length s.rows);
  assert_monotone ~dir:`Nondecreasing "M" (normalized_ranks s)

let test_c_sweep () =
  let s = Ir_sweep.Table4.c_sweep ~config:small_config () in
  Alcotest.(check int) "13 grid points" 13 (List.length s.rows);
  (* Clock increases along the sweep; rank must not increase. *)
  assert_monotone ~dir:`Nonincreasing "C" (normalized_ranks s)

let test_r_sweep () =
  let s = Ir_sweep.Table4.r_sweep ~config:small_config () in
  Alcotest.(check int) "5 grid points" 5 (List.length s.rows);
  assert_monotone ~dir:`Nondecreasing "R" (normalized_ranks s);
  (* Near-linearity: the paper's R column is linear in R. *)
  let xs = normalized_ranks s in
  let r01 = List.nth xs 0 and r03 = List.nth xs 2 and r05 = List.nth xs 4 in
  let interpolated = (r01 +. r05) /. 2.0 in
  Alcotest.(check bool) "midpoint close to linear" true
    (Float.abs (r03 -. interpolated) < 0.05)

let test_k_m_interchangeable () =
  (* The paper's central observation: K and M act through the product
     k * miller, so equal relative reductions give equal ranks. *)
  let k = Ir_sweep.Table4.k_sweep ~config:small_config () in
  let m = Ir_sweep.Table4.m_sweep ~config:small_config () in
  let rank_at sweep p =
    List.assoc_opt p
      (List.map (fun (a, b) -> (Float.round (a *. 100.), b))
         (Ir_sweep.Table4.normalized sweep))
  in
  (* K = 1.95 is a 50% reduction; M = 1.0 is a 50% reduction.  The K grid
     has no 1.95 point, so compare K=2.0 against M=1.025... instead use
     K=3.9*0.5=1.95 absent; compare 2.0 vs 1.0256*2... Simplest: measure
     K=2.0 (48.7% cut) and M=1.05 (47.5% cut) and allow a loose band. *)
  match (rank_at k 200., rank_at m 105.) with
  | Some rk, Some rm ->
      Alcotest.(check bool)
        (Printf.sprintf "K=2.0 (%.4f) ~ M=1.05 (%.4f)" rk rm)
        true
        (Float.abs (rk -. rm) < 0.03)
  | _ -> Alcotest.fail "expected grid points missing"

let test_equivalence_headline () =
  let r =
    Ir_sweep.Equivalence.matching_miller_reduction
      ~config:small_config ~k_reduction:0.38 ()
  in
  (* The paper reports ~42.5%; with c ~ k*m the match is analytic, so the
     scaled-down design should land in a generous band around it. *)
  check_in_range "miller reduction near 42%" ~lo:0.30 ~hi:0.55 r.m_reduction;
  Alcotest.(check bool) "ranks actually match" true
    (Float.abs (r.k_rank -. r.m_rank) < 0.02)

let test_cross_node () =
  let cells =
    Ir_sweep.Cross_node.run ~bunch_size:500
      ~matrix:
        [ (Ir_tech.Node.N180, 40_000); (Ir_tech.Node.N130, 40_000);
          (Ir_tech.Node.N90, 40_000) ]
      ()
  in
  Alcotest.(check int) "three cells" 3 (List.length cells);
  List.iter
    (fun (c : Ir_sweep.Cross_node.cell) ->
      Alcotest.(check bool)
        (Ir_tech.Node.name c.node ^ " assignable")
        true c.outcome.assignable)
    cells

let test_parallel_determinism () =
  (* The acceptance criterion for the Ir_exec rewiring: running the full
     Table 4 grid on 4 worker domains must reproduce the sequential ranks
     and row ordering byte-for-byte. *)
  let tiny =
    let design = Ir_tech.Design.v ~node:Ir_tech.Node.N130 ~gates:20_000 () in
    { Ir_sweep.Table4.default_config with design; bunch_size = 400 }
  in
  let strip (s : Ir_sweep.Table4.sweep) =
    ( s.name,
      List.map
        (fun (r : Ir_sweep.Table4.row) ->
          (r.param, r.outcome.Ir_core.Outcome.rank_wires,
           r.outcome.Ir_core.Outcome.total_wires))
        s.rows )
  in
  let seq = List.map strip (Ir_sweep.Table4.all ~jobs:1 ~config:tiny ()) in
  let par = List.map strip (Ir_sweep.Table4.all ~jobs:4 ~config:tiny ()) in
  Alcotest.(check int) "same sweep count" (List.length seq) (List.length par);
  List.iter2
    (fun (name_s, rows_s) (name_p, rows_p) ->
      Alcotest.(check string) "sweep order" name_s name_p;
      Alcotest.(check bool)
        (name_s ^ ": identical rows") true (rows_s = rows_p))
    seq par;
  let cseq =
    Ir_sweep.Cross_node.run ~jobs:1 ~bunch_size:400
      ~matrix:[ (Ir_tech.Node.N130, 20_000); (Ir_tech.Node.N90, 20_000) ]
      ()
  in
  let cpar =
    Ir_sweep.Cross_node.run ~jobs:4 ~bunch_size:400
      ~matrix:[ (Ir_tech.Node.N130, 20_000); (Ir_tech.Node.N90, 20_000) ]
      ()
  in
  Alcotest.(check bool) "cross-node identical" true
    (List.map
       (fun (c : Ir_sweep.Cross_node.cell) ->
         (Ir_tech.Node.name c.node, c.gates,
          c.outcome.Ir_core.Outcome.rank_wires))
       cseq
    = List.map
        (fun (c : Ir_sweep.Cross_node.cell) ->
          (Ir_tech.Node.name c.node, c.gates,
           c.outcome.Ir_core.Outcome.rank_wires))
        cpar)

(* Frozen Table-4 ranks of [small_config], column by column, as the
   retired per-point scheduler computed them (one independent build per
   K/M/C point, one shared build for the R column).  Every row exact. *)
let frozen_plain =
  [
    ( "K",
      [
        47865; 48365; 49365; 49865; 50365; 51365; 51865; 52865; 53865; 54365;
        55713; 56713; 57713; 58713; 59713; 61213; 62213; 63713; 65213; 67213;
        68713; 70713
      ] );
    ( "M",
      [
        47865; 48365; 48865; 49865; 50365; 51365; 51865; 52865; 53365; 54365;
        55213; 56213; 57213; 58213; 59213; 60713; 61713; 63213; 64713; 66213;
        67713
      ] );
    ( "C",
      [
        47865; 47865; 47865; 47865; 47865; 47865; 47865; 47865; 47865; 47865;
        47865; 47865; 47865
      ] );
    ( "R", [ 11559; 23484; 35750; 47865; 59713 ] );
  ]

(* The same, under a power budget of half the baseline witness's spend
   ([frozen_p_inf] watts).  Every row exact. *)
let frozen_powered =
  [
    ( "K",
      [
        23484; 23984; 24484; 24484; 24984; 25484; 25484; 25984; 26484; 26984;
        27470; 27970; 28470; 28970; 29470; 29970; 30970; 31470; 32470; 33250;
        33750; 34750
      ] );
    ( "M",
      [
        23484; 23984; 23984; 24484; 24984; 25484; 25484; 25984; 26484; 26984;
        27470; 27970; 28470; 28970; 29470; 29970; 30470; 31470; 31970; 32750;
        33750
      ] );
    ( "C",
      [
        23484; 19612; 16805; 14950; 13424; 12146; 11123; 9809; 9093; 8459;
        7894; 7429; 7014
      ] );
    ( "R", [ 11559; 23484; 23484; 23484; 23484 ] );
  ]

(* kappa times the baseline witness's repeater area, watts. *)
let frozen_p_inf = 0.16485747101729234

(* One Table-4 row's own problem, derived from the config's base instance
   exactly as a grid cell is (materials, clock or fraction override). *)
let row_problem base (s : Ir_sweep.Table4.sweep) param =
  match s.name with
  | "K" -> P.with_materials base (Ir_ia.Materials.v ~k:param ())
  | "M" -> P.with_materials base (Ir_ia.Materials.v ~miller:param ())
  | "C" -> P.with_clock base param
  | "R" -> P.with_repeater_fraction base param
  | name -> Alcotest.failf "unknown sweep %s" name

(* Three-way Table-4 identity: every row of the shared-plane grid run
   equals an unshared evaluation of the point's own problem (each cell
   its own plane, [Rank_grid.eval_batch]) and the frozen values. *)
let check_table4_three_way config frozen =
  let sweeps = Ir_sweep.Table4.all ~config () in
  let base =
    P.with_power_budget
      (Ir_sweep.Table4.baseline_problem config)
      config.Ir_sweep.Table4.power_budget
  in
  let rows =
    List.concat_map
      (fun (s : Ir_sweep.Table4.sweep) ->
        List.map (fun (r : Ir_sweep.Table4.row) -> (s, r)) s.rows)
      sweeps
  in
  let unshared =
    Ir_core.Rank_grid.eval_batch
      (Array.of_list
         (List.map
            (fun (s, (r : Ir_sweep.Table4.row)) -> row_problem base s r.param)
            rows))
  in
  Alcotest.(check (list string)) "sweep order" (List.map fst frozen)
    (List.map (fun (s : Ir_sweep.Table4.sweep) -> s.name) sweeps);
  Alcotest.(check (list (list int))) "frozen ranks" (List.map snd frozen)
    (List.map
       (fun (s : Ir_sweep.Table4.sweep) ->
         List.map
           (fun (r : Ir_sweep.Table4.row) -> r.outcome.Ir_core.Outcome.rank_wires)
           s.rows)
       sweeps);
  List.iteri
    (fun i ((s : Ir_sweep.Table4.sweep), (r : Ir_sweep.Table4.row)) ->
      let label = Printf.sprintf "%s param %.4g" s.name r.param in
      Alcotest.(check bool) (label ^ ": exact") true
        r.outcome.Ir_core.Outcome.exact;
      Alcotest.(check bool) (label ^ ": shared = unshared") true
        (Ir_core.Outcome.equal r.outcome unshared.(i)))
    rows

let test_grid_engine_identity () =
  check_table4_three_way small_config frozen_plain;
  let base = Ir_sweep.Table4.baseline_problem small_config in
  let p_inf =
    match Ir_core.Rank_grid.compute base with
    | _, Some w -> Ir_power.Power.of_witness base w
    | _, None -> Alcotest.fail "baseline unassignable"
  in
  Alcotest.(check (float 0.0)) "frozen baseline spend" frozen_p_inf p_inf;
  check_table4_three_way
    { small_config with Ir_sweep.Table4.power_budget = 0.5 *. p_inf }
    frozen_powered

let test_paper_data () =
  Alcotest.(check int) "K column size" 22 (List.length Ir_sweep.Paper_data.table4_k);
  Alcotest.(check int) "M column size" 21 (List.length Ir_sweep.Paper_data.table4_m);
  Alcotest.(check int) "C column size" 13 (List.length Ir_sweep.Paper_data.table4_c);
  Alcotest.(check int) "R column size" 5 (List.length Ir_sweep.Paper_data.table4_r);
  check_close "baseline value" 0.397288
    Ir_sweep.Paper_data.baseline_normalized_rank;
  (* Published columns share the baseline row. *)
  List.iter
    (fun col ->
      check_close "baseline row" 0.397288 (snd (List.hd col)))
    [ Ir_sweep.Paper_data.table4_k; Ir_sweep.Paper_data.table4_m;
      Ir_sweep.Paper_data.table4_c ]

let test_report_table () =
  let buf = Format.asprintf "%t"
      (Ir_sweep.Report.table ~header:[ "a"; "b" ]
         ~rows:[ [ "1"; "22" ]; [ "333"; "4" ] ])
  in
  Alcotest.(check bool) "has header" true (Astring_contains.contains buf "a");
  Alcotest.(check bool) "has separator" true
    (Astring_contains.contains buf "---")

let test_report_csv () =
  let buf = Buffer.create 64 in
  Ir_sweep.Report.csv ~header:[ "x"; "y" ]
    ~rows:[ [ "1"; "he,llo" ]; [ "2"; "quo\"te" ] ]
    buf;
  let s = Buffer.contents buf in
  Alcotest.(check bool) "quoted comma" true
    (Astring_contains.contains s "\"he,llo\"");
  Alcotest.(check bool) "escaped quote" true
    (Astring_contains.contains s "\"quo\"\"te\"")

let test_report_correlation () =
  let xs = [ (1.0, 1.0); (2.0, 2.0); (3.0, 3.0) ] in
  check_close "perfect correlation" 1.0 (Ir_sweep.Report.correlation xs xs);
  let ys = [ (1.0, 3.0); (2.0, 2.0); (3.0, 1.0) ] in
  check_close "perfect anticorrelation" (-1.0)
    (Ir_sweep.Report.correlation xs ys);
  check_close "max delta" 2.0 (Ir_sweep.Report.max_abs_delta xs ys);
  Alcotest.(check bool) "nan on no overlap" true
    (Float.is_nan (Ir_sweep.Report.correlation xs [ (9.0, 9.0) ]))

let test_sweep_render () =
  let s = Ir_sweep.Table4.r_sweep ~config:small_config () in
  let txt = Format.asprintf "%t" (Ir_sweep.Report.sweep_table s) in
  Alcotest.(check bool) "mentions column name" true
    (Astring_contains.contains txt "column R");
  Alcotest.(check bool) "includes paper values" true
    (Astring_contains.contains txt "0.117438");
  let buf = Buffer.create 256 in
  Ir_sweep.Report.sweep_csv s buf;
  Alcotest.(check bool) "csv has header" true
    (Astring_contains.contains (Buffer.contents buf) "measured")

let test_export () =
  let dir = Filename.temp_file "ia_rank" "_results" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      let sweep = Ir_sweep.Table4.r_sweep ~config:small_config () in
      (match Ir_sweep.Export.write_sweeps ~dir [ sweep ] with
      | Error e -> Alcotest.failf "write_sweeps: %s" e
      | Ok paths ->
          Alcotest.(check int) "one file" 1 (List.length paths);
          let contents =
            In_channel.with_open_text (List.hd paths) In_channel.input_all
          in
          Alcotest.(check bool) "csv has paper column" true
            (Astring_contains.contains contents "0.117438"));
      (match
         Ir_sweep.Export.write_cross ~dir
           (Ir_sweep.Cross_node.run ~bunch_size:500
              ~matrix:[ (Ir_tech.Node.N130, 40_000) ] ())
       with
      | Error e -> Alcotest.failf "write_cross: %s" e
      | Ok path ->
          Alcotest.(check bool) "cross file exists" true
            (Sys.file_exists path));
      (match
         Ir_sweep.Export.write_manifest ~dir
           ~entries:[ ("E4", "table4 column R") ]
       with
      | Error e -> Alcotest.failf "write_manifest: %s" e
      | Ok path ->
          let contents = In_channel.with_open_text path In_channel.input_all in
          Alcotest.(check bool) "manifest entry" true
            (Astring_contains.contains contents "E4: table4 column R"));
      match
        Ir_sweep.Export.write_bench_json ~dir ~jobs:4
          ~timings:[ ("table4_jobs1_seconds", 1.25) ]
          ~metrics:(Ir_obs.snapshot ())
          ~kernel:[ ("front_insert_ns", 12.5) ]
          ~parallel:
            {
              Ir_sweep.Export.requested_jobs = 4;
              effective_jobs = 1;
              jobs1_seconds = 1.25;
              jobsn_seconds = Some 2.5;
            }
          ~scaling:
            {
              Ir_sweep.Export.max_jobs = 4;
              points = [ (1, 4.0); (2, 2.0); (4, 1.95) ];
            }
          ~grid:
            {
              Ir_sweep.Export.grid_points = 57;
              grid_planes = 33;
              per_point_seconds = 4.0;
              grid_seconds = 1.6;
              grid_identical = true;
              grid_counters_match = true;
              perturb_recomputed = 1;
              perturb_grid_cells = 10;
              perturb_seconds = 0.01;
              full_eval_seconds = 0.4;
            }
          ~power:
            {
              Ir_sweep.Export.power_points = 11;
              unconstrained_power = 0.4106;
              power_identity_ok = true;
              power_counters_match = true;
              power_engines_agree = true;
              power_monotone = true;
              power_seconds = 0.5;
            }
          ~serving:
            {
              Ir_sweep.Export.trace_requests = 9;
              distinct_queries = 3;
              hit_rate = 0.75;
              p50_ms = 1.0;
              p95_ms = 2.0;
              p99_ms = 3.0;
              computes = 3;
              table_builds = 1;
              counters_match = true;
            }
          ~serving_sharded:
            {
              Ir_sweep.Export.shards = 2;
              clients = 32;
              storm_requests = 192;
              distinct_families = 2;
              sh_distinct_queries = 14;
              sh_p50_ms = 1.0;
              sh_p95_ms = 2.0;
              sh_p99_ms = 3.0;
              shed_rate = 0.0;
              coalesce_rate = 0.25;
              table_builds_per_shard = [ 1; 1 ];
              byte_identical = true;
            }
          ~sweeps:[ sweep ] ~cross:[] ()
      with
      | Error e -> Alcotest.failf "write_bench_json: %s" e
      | Ok path ->
          Alcotest.(check string) "path" (Ir_sweep.Export.bench_json_path ~dir)
            path;
          let contents = In_channel.with_open_text path In_channel.input_all in
          List.iter
            (fun needle ->
              Alcotest.(check bool)
                ("bench json has " ^ needle)
                true
                (Astring_contains.contains contents needle))
            [
              "\"schema\":\"ia-rank/bench-sweeps/11\"";
              "\"jobs\":4";
              (* The grid leg: 4.0 s per-point over 1.6 s grid = 2.5x,
                 perturb touching 1 of 10 cells. *)
              "\"grid\":{\"status\":\"ok\"";
              "\"points\":57";
              "\"planes\":33";
              "\"speedup\":2.5";
              "\"perturb\":{\"recomputed_cells\":1,\"grid_cells\":10";
              (* The power leg: all four contracts green. *)
              "\"power\":{\"status\":\"ok\"";
              "\"unconstrained_power_watts\":0.4106";
              "\"identity_ok\":true";
              "\"engines_agree\":true";
              "\"monotone\":true";
              "\"serving\":{\"trace_requests\":9";
              "\"serving_sharded\":{\"status\":\"ok\"";
              "\"table_builds_per_shard\":[1,1]";
              "\"byte_identical\":true";
              "\"counters_match\":true";
              "\"hit_rate\":0.75";
              "\"requested_jobs\":4";
              "\"effective_jobs\":1";
              "\"speedup\":0.5";
              "\"parallel_regression\":true";
              (* The scaling curve: 4.0 s at jobs=1, 2.0 s at jobs=2
                 (speedup 2, the >=5% knee), 1.95 s at jobs=4 (speedup
                 2.05 — under the 5% marginal-gain bar). *)
              "\"scaling\":{\"max_jobs\":4";
              "\"status\":\"ok\"";
              "\"knee_jobs\":2";
              "\"speedup\":2,\"parallel_regression\":false";
              "\"kernel\":{\"front_insert_ns\":12.5}";
              "\"gauges\":{";
              "\"table4_jobs1_seconds\":1.25";
              "\"rank_wires\"";
              "\"exact\":true";
              "\"metrics\":{\"counters\":{";
              "\"sweep/points\"";
              "\"cross_node\":[]";
            ])

(* Satellite of the scheduler PR: on a single-core box the parallel leg
   is skipped, and both the two-leg report and the scaling curve must
   say "skipped_single_core" instead of flagging a false regression. *)
let test_export_single_core () =
  let dir = Filename.temp_file "ia_rank" "_single" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
  @@ fun () ->
  match
    Ir_sweep.Export.write_bench_json ~dir ~jobs:4
      ~timings:[ ("table4_jobs1_seconds", 1.25) ]
      ~parallel:
        {
          Ir_sweep.Export.requested_jobs = 4;
          effective_jobs = 1;
          jobs1_seconds = 1.25;
          jobsn_seconds = None;
        }
      ~scaling:{ Ir_sweep.Export.max_jobs = 1; points = [ (1, 1.25) ] }
      ~sweeps:[] ~cross:[] ()
  with
  | Error e -> Alcotest.failf "write_bench_json: %s" e
  | Ok path ->
      let contents = In_channel.with_open_text path In_channel.input_all in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            ("single-core json has " ^ needle)
            true
            (Astring_contains.contains contents needle))
        [
          "\"parallel_regression\":\"skipped_single_core\"";
          "\"status\":\"skipped_single_core\"";
          "\"knee_jobs\":1";
        ];
      (* No fabricated jobs=N numbers anywhere. *)
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            ("single-core json lacks " ^ needle)
            false
            (Astring_contains.contains contents needle))
        [ "\"jobsN_seconds\""; "\"parallel_regression\":true" ]

(* The derived serving_sharded status the CI gate keys on: each failure
   mode maps to its own verdict, checked worst-first. *)
let test_sharded_status () =
  let base =
    {
      Ir_sweep.Export.shards = 2;
      clients = 8;
      storm_requests = 64;
      distinct_families = 2;
      sh_distinct_queries = 6;
      sh_p50_ms = 1.0;
      sh_p95_ms = 2.0;
      sh_p99_ms = 3.0;
      shed_rate = 0.0;
      coalesce_rate = 0.1;
      table_builds_per_shard = [ 1; 1 ];
      byte_identical = true;
    }
  in
  let status = Ir_sweep.Export.sharded_status in
  Alcotest.(check string) "clean run" "ok" (status base);
  Alcotest.(check string) "byte identity dominates" "mismatch"
    (status { base with byte_identical = false; shed_rate = 1.0 });
  Alcotest.(check string) "a family built twice" "duplicate_family_builds"
    (status { base with table_builds_per_shard = [ 2; 1 ] });
  Alcotest.(check string) "over half the storm shed" "shed_exceeded"
    (status { base with shed_rate = 0.6 });
  Alcotest.(check string) "heavy but acceptable shed" "ok"
    (status { base with shed_rate = 0.5 })

let grid_report_base =
  {
    Ir_sweep.Export.grid_points = 57;
    grid_planes = 33;
    per_point_seconds = 4.0;
    grid_seconds = 1.6;
    grid_identical = true;
    grid_counters_match = true;
    perturb_recomputed = 1;
    perturb_grid_cells = 10;
    perturb_seconds = 0.01;
    full_eval_seconds = 0.4;
  }

let test_grid_status () =
  let status = Ir_sweep.Export.grid_status in
  Alcotest.(check string) "clean run" "ok" (status grid_report_base);
  Alcotest.(check string) "byte identity dominates" "mismatch"
    (status
       {
         grid_report_base with
         grid_identical = false;
         grid_counters_match = false;
       });
  Alcotest.(check string) "schedule-variant counters" "counters_mismatch"
    (status { grid_report_base with grid_counters_match = false });
  Alcotest.(check string) "perturb as costly as a rebuild"
    "perturb_not_incremental"
    (status { grid_report_base with perturb_recomputed = 10 });
  (* The speedup is reported, never gated: a slower grid is still
     honest. *)
  Alcotest.(check string) "slow grid still ok" "ok"
    (status { grid_report_base with grid_seconds = 9.0 })

(* Satellite of the grid PR: the exported BENCH_sweeps.json must parse
   as JSON and carry the schema-11 top-level contract — every object the
   CI gates read, with the right shapes. *)
let test_bench_schema () =
  let dir = Filename.temp_file "ia_rank" "_schema" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
  @@ fun () ->
  match
    Ir_sweep.Export.write_bench_json ~dir ~jobs:2
      ~timings:[ ("table4_jobs1_seconds", 2.0) ]
      ~metrics:(Ir_obs.snapshot ())
      ~kernel:[ ("front_insert_ns", 12.5) ]
      ~parallel:
        {
          Ir_sweep.Export.requested_jobs = 2;
          effective_jobs = 2;
          jobs1_seconds = 2.0;
          jobsn_seconds = Some 1.0;
        }
      ~scaling:
        { Ir_sweep.Export.max_jobs = 2; points = [ (1, 2.0); (2, 1.0) ] }
      ~grid:grid_report_base
      ~power:
        {
          Ir_sweep.Export.power_points = 4;
          unconstrained_power = 0.2;
          power_identity_ok = true;
          power_counters_match = true;
          power_engines_agree = true;
          power_monotone = true;
          power_seconds = 0.1;
        }
      ~serving:
        {
          Ir_sweep.Export.trace_requests = 9;
          distinct_queries = 3;
          hit_rate = 0.75;
          p50_ms = 1.0;
          p95_ms = 2.0;
          p99_ms = 3.0;
          computes = 3;
          table_builds = 1;
          counters_match = true;
        }
      ~serving_sharded:
        {
          Ir_sweep.Export.shards = 2;
          clients = 32;
          storm_requests = 192;
          distinct_families = 2;
          sh_distinct_queries = 14;
          sh_p50_ms = 1.0;
          sh_p95_ms = 2.0;
          sh_p99_ms = 3.0;
          shed_rate = 0.0;
          coalesce_rate = 0.25;
          table_builds_per_shard = [ 1; 1 ];
          byte_identical = true;
        }
      ~sweeps:[] ~cross:[] ()
  with
  | Error e -> Alcotest.failf "write_bench_json: %s" e
  | Ok path ->
      let module Sj = Ir_serve.Json in
      let contents = In_channel.with_open_text path In_channel.input_all in
      let json =
        match Sj.of_string contents with
        | Ok j -> j
        | Error e -> Alcotest.failf "bench json does not parse: %s" e
      in
      let mem k =
        match Sj.member k json with
        | Some v -> v
        | None -> Alcotest.failf "missing top-level key %S" k
      in
      Alcotest.(check (option string))
        "schema tag"
        (Some "ia-rank/bench-sweeps/11")
        (Sj.to_str (mem "schema"));
      Alcotest.(check (option int)) "jobs" (Some 2) (Sj.to_int (mem "jobs"));
      List.iter
        (fun k ->
          match mem k with
          | Sj.Obj _ -> ()
          | _ -> Alcotest.failf "top-level %S is not an object" k)
        [
          "timings"; "parallel"; "scaling"; "kernel"; "grid"; "power";
          "serving"; "serving_sharded"; "metrics";
        ];
      List.iter
        (fun k ->
          match mem k with
          | Sj.Arr _ -> ()
          | _ -> Alcotest.failf "top-level %S is not an array" k)
        [ "table4"; "cross_node" ];
      (* The grid object carries exactly what the CI gate reads. *)
      let grid = mem "grid" in
      let gmem k =
        match Sj.member k grid with
        | Some v -> v
        | None -> Alcotest.failf "grid object missing %S" k
      in
      Alcotest.(check (option string))
        "grid status" (Some "ok")
        (Sj.to_str (gmem "status"));
      Alcotest.(check (option int)) "grid points" (Some 57)
        (Sj.to_int (gmem "points"));
      Alcotest.(check (option int)) "grid planes" (Some 33)
        (Sj.to_int (gmem "planes"));
      (match Sj.to_float (gmem "speedup") with
      | Some s -> Alcotest.(check (float 1e-9)) "grid speedup" 2.5 s
      | None -> Alcotest.fail "grid speedup is not a number");
      let perturb = gmem "perturb" in
      Alcotest.(check (option int))
        "perturb recomputed" (Some 1)
        (Sj.to_int
           (Option.value ~default:Sj.Null
              (Sj.member "recomputed_cells" perturb)));
      Alcotest.(check (option int))
        "perturb grid cells" (Some 10)
        (Sj.to_int
           (Option.value ~default:Sj.Null (Sj.member "grid_cells" perturb)));
      (* The power object carries exactly what the CI gate reads. *)
      let power = mem "power" in
      let pmem k =
        match Sj.member k power with
        | Some v -> v
        | None -> Alcotest.failf "power object missing %S" k
      in
      Alcotest.(check (option string))
        "power status" (Some "ok")
        (Sj.to_str (pmem "status"));
      Alcotest.(check (option int))
        "power points" (Some 4)
        (Sj.to_int (pmem "points"));
      match Sj.to_float (pmem "unconstrained_power_watts") with
      | Some w -> Alcotest.(check (float 1e-9)) "power watts" 0.2 w
      | None -> Alcotest.fail "unconstrained_power_watts is not a number"

let test_export_bad_dir () =
  match Ir_sweep.Export.write_manifest ~dir:"/proc/nope/never" ~entries:[] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected filesystem error"

let with_temp_root f =
  let root = Filename.temp_file "ia_rank" "_dirs" in
  Sys.remove root;
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm root) (fun () -> f root)

let test_ensure_dir_recursive () =
  with_temp_root @@ fun root ->
  let nested = Filename.concat (Filename.concat root "a") "b" in
  (match Ir_sweep.Export.ensure_dir nested with
  | Error e -> Alcotest.failf "ensure_dir nested: %s" e
  | Ok () ->
      Alcotest.(check bool) "nested dir exists" true (Sys.is_directory nested));
  (* Idempotent on an existing directory. *)
  (match Ir_sweep.Export.ensure_dir nested with
  | Error e -> Alcotest.failf "ensure_dir existing: %s" e
  | Ok () -> ());
  (* A regular file in the way is a clear error naming the path. *)
  let blocked = Filename.concat nested "file" in
  Out_channel.with_open_text blocked (fun oc ->
      Out_channel.output_string oc "x");
  match Ir_sweep.Export.ensure_dir (Filename.concat blocked "below") with
  | Ok () -> Alcotest.fail "expected error through a regular file"
  | Error e ->
      Alcotest.(check bool) "error names the blocking path" true
        (Astring_contains.contains e blocked)

let rename_sweep (s : Ir_sweep.Table4.sweep) name = { s with name }

let test_sweep_csv_collision () =
  with_temp_root @@ fun root ->
  let sweep = Ir_sweep.Table4.r_sweep ~config:small_config () in
  let upper = rename_sweep sweep "R" and lower = rename_sweep sweep "r" in
  (* [sweep_csv_path] lowercases, so "R" and "r" map to the same file. *)
  Alcotest.(check string) "paths collide"
    (Ir_sweep.Export.sweep_csv_path ~dir:root upper)
    (Ir_sweep.Export.sweep_csv_path ~dir:root lower);
  (match Ir_sweep.Export.write_sweeps ~dir:root [ upper; lower ] with
  | Ok _ -> Alcotest.fail "expected collision error"
  | Error e ->
      Alcotest.(check bool) "error names both sweeps" true
        (Astring_contains.contains e "\"R\""
        && Astring_contains.contains e "\"r\"");
      Alcotest.(check bool) "nothing written" true
        (not (Sys.file_exists (Ir_sweep.Export.sweep_csv_path ~dir:root upper))));
  (* The same sweep listed twice is not a collision (last write wins). *)
  match Ir_sweep.Export.write_sweeps ~dir:root [ upper; upper ] with
  | Ok paths -> Alcotest.(check int) "two writes" 2 (List.length paths)
  | Error e -> Alcotest.failf "same-name sweeps should write: %s" e

(* ---- power: the rank-vs-power frontier sweep -------------------------- *)

let test_power_pareto_run () =
  let r =
    Ir_sweep.Power_pareto.run ~config:small_config
      ~fractions:[ 0.25; 0.5; 1.0 ] ()
  in
  Alcotest.(check int) "three rows" 3 (List.length r.rows);
  Alcotest.(check bool) "frontier monotone" true
    (Ir_sweep.Power_pareto.monotone r);
  Alcotest.(check bool) "unconstrained power positive" true
    (r.unconstrained_power > 0.0);
  List.iter
    (fun (row : Ir_sweep.Power_pareto.row) ->
      if row.outcome.Ir_core.Outcome.assignable then
        Alcotest.(check bool) "witness within budget" true
          (row.power <= row.budget))
    r.rows;
  let last = List.nth r.rows 2 in
  Alcotest.(check int) "fraction 1.0 recovers the unconstrained rank"
    r.unconstrained.Ir_core.Outcome.rank_wires
    last.outcome.Ir_core.Outcome.rank_wires

let test_power_pareto_bad_fraction () =
  List.iter
    (fun fractions ->
      try
        ignore (Ir_sweep.Power_pareto.run ~config:small_config ~fractions ());
        Alcotest.fail "expected Invalid_argument"
      with Invalid_argument _ -> ())
    [ [ 0.0 ]; [ -0.5 ]; [ 1.5 ] ]

let test_table4_power_budgeted () =
  let base = Ir_sweep.Table4.baseline_problem small_config in
  let _, w = Ir_core.Rank_grid.compute base in
  let p_inf =
    match w with
    | Some w -> Ir_power.Power.of_witness base w
    | None -> Alcotest.fail "baseline unassignable"
  in
  let powered =
    { small_config with Ir_sweep.Table4.power_budget = 0.5 *. p_inf }
  in
  (* A powered config runs every grid plane in power mode. *)
  let s = Ir_sweep.Table4.r_sweep ~config:powered () in
  let s0 = Ir_sweep.Table4.r_sweep ~config:small_config () in
  List.iter2
    (fun (b : Ir_sweep.Table4.row) (u : Ir_sweep.Table4.row) ->
      Alcotest.(check bool) "budgeted rank <= unconstrained rank" true
        (b.outcome.Ir_core.Outcome.rank_wires
        <= u.outcome.Ir_core.Outcome.rank_wires))
    s.rows s0.rows;
  Alcotest.(check bool) "the half-spend budget binds somewhere" true
    (List.exists2
       (fun (b : Ir_sweep.Table4.row) (u : Ir_sweep.Table4.row) ->
         b.outcome.Ir_core.Outcome.rank_wires
         < u.outcome.Ir_core.Outcome.rank_wires)
       s.rows s0.rows)

let test_write_power_pareto () =
  with_temp_root @@ fun root ->
  let r =
    Ir_sweep.Power_pareto.run ~config:small_config ~fractions:[ 0.5; 1.0 ] ()
  in
  match Ir_sweep.Export.write_power_pareto ~dir:root r with
  | Error e -> Alcotest.failf "write_power_pareto: %s" e
  | Ok path ->
      Alcotest.(check string) "path"
        (Ir_sweep.Export.power_pareto_csv_path ~dir:root)
        path;
      let contents = In_channel.with_open_text path In_channel.input_all in
      Alcotest.(check bool) "header" true
        (Astring_contains.contains contents
           "fraction,budget_watts,power_watts,rank_wires,total_wires,normalized,boundary_bunch,assignable,exact");
      let lines = String.split_on_char '\n' (String.trim contents) in
      Alcotest.(check int) "one line per row plus header" 3
        (List.length lines)

let power_report_base =
  {
    Ir_sweep.Export.power_points = 4;
    unconstrained_power = 0.2;
    power_identity_ok = true;
    power_counters_match = true;
    power_engines_agree = true;
    power_monotone = true;
    power_seconds = 0.1;
  }

(* Status precedence mirrors soundness severity: the identity anchor
   outranks everything, then jobs-counter identity, then engine
   agreement, then frontier shape. *)
let test_power_status () =
  let status = Ir_sweep.Export.power_status in
  Alcotest.(check string) "ok" "ok" (status power_report_base);
  Alcotest.(check string) "identity outranks monotone" "identity_broken"
    (status
       {
         power_report_base with
         power_identity_ok = false;
         power_monotone = false;
       });
  Alcotest.(check string) "counters" "counters_mismatch"
    (status { power_report_base with power_counters_match = false });
  Alcotest.(check string) "engines" "engine_mismatch"
    (status { power_report_base with power_engines_agree = false });
  Alcotest.(check string) "monotone" "frontier_not_monotone"
    (status { power_report_base with power_monotone = false })

let () =
  Alcotest.run "sweep"
    [
      ( "table4",
        [
          Alcotest.test_case "K column" `Slow test_k_sweep;
          Alcotest.test_case "M column" `Slow test_m_sweep;
          Alcotest.test_case "C column" `Slow test_c_sweep;
          Alcotest.test_case "R column" `Slow test_r_sweep;
          Alcotest.test_case "K and M interchangeable" `Slow
            test_k_m_interchangeable;
          Alcotest.test_case "grid engine = per-point engine" `Slow
            test_grid_engine_identity;
        ] );
      ( "equivalence",
        [ Alcotest.test_case "headline 38% K ~ 42% M" `Slow
            test_equivalence_headline ] );
      ( "cross node",
        [ Alcotest.test_case "matrix" `Slow test_cross_node ] );
      ( "parallel execution",
        [ Alcotest.test_case "jobs=4 reproduces jobs=1" `Slow
            test_parallel_determinism ] );
      ( "paper data",
        [ Alcotest.test_case "columns" `Quick test_paper_data ] );
      ( "power",
        [
          Alcotest.test_case "frontier run" `Slow test_power_pareto_run;
          Alcotest.test_case "bad fractions" `Slow
            test_power_pareto_bad_fraction;
          Alcotest.test_case "table4 power-budgeted config" `Slow
            test_table4_power_budgeted;
          Alcotest.test_case "power_pareto.csv round trip" `Slow
            test_write_power_pareto;
          Alcotest.test_case "status derivation" `Quick test_power_status;
        ] );
      ( "export",
        [
          Alcotest.test_case "round trip" `Slow test_export;
          Alcotest.test_case "single-core skip report" `Quick
            test_export_single_core;
          Alcotest.test_case "sharded status" `Quick test_sharded_status;
          Alcotest.test_case "grid status" `Quick test_grid_status;
          Alcotest.test_case "bench json schema 11" `Quick test_bench_schema;
          Alcotest.test_case "bad directory" `Quick test_export_bad_dir;
          Alcotest.test_case "recursive directory creation" `Quick
            test_ensure_dir_recursive;
          Alcotest.test_case "lowercase csv collision" `Slow
            test_sweep_csv_collision;
        ] );
      ( "report",
        [
          Alcotest.test_case "table" `Quick test_report_table;
          Alcotest.test_case "csv" `Quick test_report_csv;
          Alcotest.test_case "correlation" `Quick test_report_correlation;
          Alcotest.test_case "sweep render" `Quick test_sweep_render;
        ] );
    ]
