(* End-to-end and cross-library integration tests: the full pipeline on
   small designs, consistency between independently computed views, and
   regression cases for degenerate instances. *)

open Helpers

module P = Ir_assign.Problem

let design = Ir_tech.Design.v ~node:Ir_tech.Node.N130 ~gates:40_000 ()

let test_pipeline_deterministic () =
  (* Rebuilding the whole pipeline from scratch yields bit-identical
     outcomes: nothing in WLD generation, bunching or the DP depends on
     ambient state. *)
  let run () = Ir_core.Rank.of_design ~bunch_size:500 design in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical outcomes" true (Ir_core.Outcome.equal a b)

let test_witness_matches_all_algorithms () =
  let problem = Ir_core.Rank.problem_of_design ~bunch_size:500 design in
  let dp, _ = Ir_core.Rank_grid.compute problem in
  let via_facade = Ir_core.Rank.compute problem in
  let witness = Ir_core.Assignment.extract problem in
  Alcotest.(check int) "facade = dp" dp.rank_wires via_facade.rank_wires;
  Alcotest.(check int) "witness = dp" dp.rank_wires
    witness.outcome.rank_wires;
  (* The witness's repeater area re-derived from per-bunch eta agrees
     with the DP's budget usage bound. *)
  let total_area =
    List.fold_left
      (fun a (l : Ir_core.Assignment.pair_load) -> a +. l.repeater_area)
      0.0 witness.meeting
  in
  Alcotest.(check bool) "witness within budget" true
    (total_area <= P.budget problem *. (1.0 +. 1e-9))

let test_utilization_consistent_with_capacity () =
  let problem = Ir_core.Rank.problem_of_design ~bunch_size:500 design in
  let witness = Ir_core.Assignment.extract problem in
  List.iter
    (fun (j, u) ->
      if u > 1.0 +. 1e-9 || u < 0.0 then
        Alcotest.failf "pair %d utilization %f out of [0,1]" j u)
    (Ir_core.Assignment.utilization problem witness)

let test_wld_roundtrip_preserves_rank () =
  (* Export the WLD to CSV, reload, recompute: the rank must be
     unchanged (lossless persistence end to end). *)
  let arch = Ir_ia.Arch.make ~design () in
  let wld =
    Ir_wld.Davis.generate (Ir_wld.Davis.params ~gates:design.gates ())
  in
  let rank w =
    (Ir_core.Rank.compute
       (Ir_assign.Problem.make ~bunch_size:500 ~arch ~wld:w ()))
      .rank_wires
  in
  match Ir_wld.Io.of_string (Ir_wld.Io.to_string wld) with
  | Error e -> Alcotest.failf "roundtrip: %s" e
  | Ok reloaded -> Alcotest.(check int) "rank stable" (rank wld) (rank reloaded)

let test_single_pair_architecture () =
  let structure =
    { Ir_ia.Arch.local_pairs = 0; semi_global_pairs = 1; global_pairs = 0 }
  in
  let o = Ir_core.Rank.of_design ~structure ~bunch_size:500 design in
  (* One semi-global pair cannot hold the whole 40k-gate WLD. *)
  Alcotest.(check bool) "single pair under-capacity" false o.assignable;
  Alcotest.(check int) "rank 0 (Definition 3)" 0 o.rank_wires

let test_single_bunch_instance () =
  let arch = Ir_ia.Arch.make ~design () in
  let bunches = [| { Ir_wld.Dist.length = 1e-4; count = 3 } |] in
  let p = of_bunches ~arch ~bunches () in
  let dp = Ir_core.Rank.compute p in
  let brute = Ir_core.Rank_brute.compute p in
  Alcotest.(check int) "dp = brute on a single bunch" brute.rank_wires
    dp.rank_wires;
  Alcotest.(check bool) "either all or none meet" true
    (dp.rank_wires = 0 || dp.rank_wires = 3)

let test_huge_bunch_size () =
  (* A bunch size larger than the WLD collapses each length class to one
     bunch; the pipeline must still work and ranks stay within the
     paper's bunching error bound of the fine-grained answer. *)
  let fine = Ir_core.Rank.of_design ~bunch_size:100 design in
  let coarse = Ir_core.Rank.of_design ~bunch_size:1_000_000 design in
  let bound =
    (* largest length-class population *)
    let wld =
      Ir_wld.Davis.generate (Ir_wld.Davis.params ~gates:design.gates ())
    in
    Array.fold_left
      (fun a (b : Ir_wld.Dist.bin) -> max a b.count)
      0 (Ir_wld.Dist.bins wld)
  in
  Alcotest.(check bool)
    (Printf.sprintf "|%d - %d| <= %d" fine.rank_wires coarse.rank_wires bound)
    true
    (abs (fine.rank_wires - coarse.rank_wires) <= bound)

let test_noise_consistent_with_rc () =
  (* The problem-level noise gate and the rc-level predicate agree. *)
  let arch = Ir_ia.Arch.make ~design () in
  let wld =
    Ir_wld.Davis.generate (Ir_wld.Davis.params ~gates:design.gates ())
  in
  let limit = 0.25 in
  let p = P.make ~noise_limit:limit ~bunch_size:500 ~arch ~wld () in
  for j = 0 to P.n_pairs p - 1 do
    let pair = Ir_ia.Arch.pair arch j in
    let passes =
      Ir_rc.Noise.passes ~k:3.9 ~miller:2.0 ~limit pair.geom
    in
    let has_meeting =
      List.exists
        (fun b -> P.eta_min p ~pair:j ~bunch:b <> None)
        (List.init (P.n_bunches p) Fun.id)
    in
    if (not passes) && has_meeting then
      Alcotest.failf "pair %d fails noise yet hosts meeting wires" j
  done

let test_roadmap_entries_buildable () =
  (* Every roadmap generation yields a baseline design whose architecture
     builds and whose rank computes (small gate counts for speed). *)
  List.iter
    (fun (e : Ir_tech.Itrs.entry) ->
      let design = Ir_tech.Itrs.design_of_entry ~gates:20_000 ~clock:5e8 e in
      let o = Ir_core.Rank.of_design ~bunch_size:500 design in
      Alcotest.(check bool)
        (Printf.sprintf "%d assignable" e.year)
        true o.assignable)
    Ir_tech.Itrs.roadmap

let test_exact_agrees_on_small_real_instance () =
  (* The literal DP and the optimized DP on a real (not synthetic)
     architecture with a dozen bunches. *)
  let tiny = Ir_tech.Design.v ~node:Ir_tech.Node.N130 ~gates:4_000 () in
  let arch = Ir_ia.Arch.make ~design:tiny () in
  let wld =
    Ir_wld.Davis.generate (Ir_wld.Davis.params ~gates:4_000 ())
  in
  let p = P.make ~bunch_size:1500 ~arch ~wld () in
  if P.n_bunches p <= 14 then begin
    let dp = Ir_core.Rank.compute p in
    let exact = Ir_core.Rank_exact.compute ~r_steps:24 p in
    Alcotest.(check bool)
      (Printf.sprintf "exact (%d) <= dp (%d)" exact.rank_wires dp.rank_wires)
      true
      (exact.rank_wires <= dp.rank_wires)
  end

let prop_full_pipeline_never_crashes =
  qtest ~count:40 "pipeline total on random small designs"
    QCheck2.Gen.(
      triple (int_range 500 60_000) (float_range 0.3 3.0)
        (float_range 0.05 0.8))
    (fun (gates, clock_ghz, fraction) ->
      let design =
        Ir_tech.Design.v ~node:Ir_tech.Node.N130 ~gates
          ~clock:(clock_ghz *. 1e9) ~repeater_fraction:fraction ()
      in
      let o = Ir_core.Rank.of_design ~bunch_size:500 design in
      o.rank_wires >= 0 && o.rank_wires <= o.total_wires)

(* ---- CLI exit codes --------------------------------------------------- *)

(* The policy bin/ia_rank.ml declares: 0 success, 1 operational error
   (bad input, I/O failure, unreachable server), 2 domain verdicts
   (unassignable design).  The binary — a declared dune dep — sits next
   to this test in the build tree; resolving it relative to the test
   executable works under both `dune runtest` and `dune exec`. *)
let ia_rank =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "ia_rank.exe"))

let run_cli args =
  let cmd =
    Printf.sprintf "%s %s >/dev/null 2>&1" ia_rank
      (String.concat " " (List.map Filename.quote args))
  in
  match Unix.system cmd with
  | Unix.WEXITED code -> code
  | Unix.WSIGNALED s -> Alcotest.failf "ia_rank killed by signal %d" s
  | Unix.WSTOPPED s -> Alcotest.failf "ia_rank stopped by signal %d" s

let check_exit what expected args =
  Alcotest.(check int) what expected (run_cli args)

let test_cli_success_paths () =
  check_exit "rank on a small design" 0
    [ "rank"; "-n"; "130nm"; "-g"; "20000"; "--bunch-size"; "500" ];
  check_exit "wld summary" 0 [ "wld"; "-g"; "10000" ];
  (* Five tiers put three semi-global pairs on a stack that provides
     two: the custom arch must survive its materials/design rebinds. *)
  check_exit "ntier with more tiers than the stack" 0
    [ "ntier"; "--tiers"; "5"; "-g"; "20000"; "--bunch-size"; "500" ]

let test_cli_error_exit_codes () =
  (* operational failures (valid command line, runtime error) exit 1 *)
  check_exit "wld load from a missing file" 1
    [ "wld"; "--load"; "/nonexistent/really/not/here.csv" ];
  check_exit "wld save into an uncreatable path" 1
    [ "wld"; "-g"; "1000"; "--save"; "/dev/null/cannot/exist.csv" ];
  check_exit "query without a server" 1
    [ "query"; "--socket"; "/nonexistent/ia.sock"; "-n"; "130nm";
      "-g"; "20000" ];
  check_exit "serve refuses a non-socket path" 1
    [ "serve"; "--socket"; "/dev/null" ];
  (* command-line faults are cmdliner's documented exit 124 *)
  check_exit "unknown node" 124 [ "rank"; "-n"; "bogus"; "-g"; "20000" ];
  check_exit "negative gate count" 124 [ "rank"; "-n"; "130nm"; "-g"; "-5" ];
  check_exit "unreadable wld argument" 124
    [ "rank"; "-n"; "130nm"; "-g"; "20000"; "--wld";
      "/nonexistent/really/not/here.csv" ];
  check_exit "unknown subcommand" 124 [ "frobnicate" ]

let test_cli_query_stdio_roundtrip () =
  (* `serve --stdio` + `query` exit codes through a real pipe: a good
     query exits 0, a malformed one exits 1. *)
  let run_stdio line =
    let ic, oc =
      Unix.open_process
        (Printf.sprintf "%s serve --stdio 2>/dev/null" ia_rank)
    in
    output_string oc (line ^ "\n");
    close_out oc;
    let resp = try input_line ic with End_of_file -> "" in
    match Unix.close_process (ic, oc) with
    | Unix.WEXITED 0 -> resp
    | Unix.WEXITED code -> Alcotest.failf "serve --stdio exited %d" code
    | _ -> Alcotest.fail "serve --stdio killed"
  in
  let resp =
    run_stdio
      "{\"v\":1,\"id\":\"t\",\"op\":\"query\",\"query\":{\"node\":\"130nm\",\"gates\":20000,\"bunch_size\":500}}"
  in
  Alcotest.(check bool)
    (Printf.sprintf "stdio query answered ok (got %s)" resp)
    true
    (Astring_contains.contains resp "\"status\":\"ok\"");
  let bad = run_stdio "{\"v\":1,\"id\":\"t\",\"op\":\"frobnicate\"}" in
  Alcotest.(check bool)
    (Printf.sprintf "stdio bad request reported (got %s)" bad)
    true
    (Astring_contains.contains bad "bad_request")

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "deterministic" `Quick
            test_pipeline_deterministic;
          Alcotest.test_case "witness vs algorithms" `Quick
            test_witness_matches_all_algorithms;
          Alcotest.test_case "utilization bounded" `Quick
            test_utilization_consistent_with_capacity;
          Alcotest.test_case "WLD roundtrip preserves rank" `Quick
            test_wld_roundtrip_preserves_rank;
          prop_full_pipeline_never_crashes;
        ] );
      ( "degenerate instances",
        [
          Alcotest.test_case "single pair" `Quick
            test_single_pair_architecture;
          Alcotest.test_case "single bunch" `Quick test_single_bunch_instance;
          Alcotest.test_case "huge bunch size" `Quick test_huge_bunch_size;
        ] );
      ( "cross-library consistency",
        [
          Alcotest.test_case "noise gate vs rc predicate" `Quick
            test_noise_consistent_with_rc;
          Alcotest.test_case "roadmap entries buildable" `Slow
            test_roadmap_entries_buildable;
          Alcotest.test_case "exact vs dp on real instance" `Slow
            test_exact_agrees_on_small_real_instance;
        ] );
      ( "cli exit codes",
        [
          Alcotest.test_case "success paths" `Quick test_cli_success_paths;
          Alcotest.test_case "error paths exit 1" `Quick
            test_cli_error_exit_codes;
          Alcotest.test_case "serve --stdio roundtrip" `Quick
            test_cli_query_stdio_roundtrip;
        ] );
    ]
