(* ia_rank: command-line front end for the interconnect-architecture rank
   metric (Dasgupta/Kahng/Muddu, DATE 2003).

   Subcommands:
     rank       compute the rank of one architecture/design combination
     table4     regenerate the paper's Table 4 sweeps (K/M/C/R)
     cross      baseline ranks across nodes and design sizes
     figure2    the greedy-vs-optimal counterexample
     tables     print the paper's Table 2/3 parameter tables
     optimize   direct IA optimization by rank (Section 6 future work)
     serve      rank query daemon (unix socket or stdio)
     query      client for a running serve daemon

   Exit codes: 0 success, 1 operational error (I/O, protocol, invalid
   input), 2 domain verdicts (unassignable design, no sufficient
   structure); cmdliner itself answers malformed command lines (unknown
   node, unparsable flag, unknown subcommand) with its documented 124.
   Every error path must land on a non-zero exit — [guard]
   below converts stray exceptions from library code into a clean
   message and exit 1 instead of a backtrace. *)

open Cmdliner

let setup_logs style_renderer level =
  Fmt_tty.setup_std_outputs ?style_renderer ();
  Logs.set_level level;
  Logs.set_reporter (Logs_fmt.reporter ())

let logs_term =
  Term.(const setup_logs $ Fmt_cli.style_renderer () $ Logs_cli.level ())

(* ---- shared arguments ------------------------------------------------- *)

let node_arg =
  let parse s =
    match Ir_tech.Node.of_string s with
    | Some n -> Ok n
    | None ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown node %S (use 180nm, 130nm, 90nm, or any feature \
                size such as 65nm for a scaled custom node)"
               s))
  in
  let print ppf n = Format.pp_print_string ppf (Ir_tech.Node.name n) in
  Arg.conv (parse, print)

let node =
  Arg.(
    value
    & opt node_arg Ir_tech.Node.N130
    & info [ "n"; "node" ] ~docv:"NODE"
        ~doc:
          "Technology node: $(b,180nm), $(b,130nm) or $(b,90nm) use the \
           paper's Table 3 stacks; any other feature size (e.g. \
           $(b,65nm)) builds a custom node with ITRS-trend-scaled \
           parameters.")

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel sweeps and grids (also the \
           $(b,IA_RANK_JOBS) environment variable; default: hardware \
           parallelism minus one).  $(b,-j 1) forces sequential \
           execution; results are identical either way.")

let set_jobs jobs = Ir_exec.set_default_jobs jobs

let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print the metrics report — event counters and cumulative span \
           timers (see lib/obs) — to standard error when the command \
           finishes.  Also enabled by $(b,IA_RANK_STATS=1).  Counters are \
           deterministic: the same command prints the same counts at any \
           $(b,-j).")

let env_stats () =
  match Sys.getenv_opt "IA_RANK_STATS" with
  | Some s -> (
      match String.lowercase_ascii (String.trim s) with
      | "1" | "true" | "yes" -> true
      | _ -> false)
  | None -> false

(* To stderr so it composes with --csv/redirected stdout. *)
let print_stats enabled =
  if enabled || env_stats () then
    Format.eprintf "%a@." Ir_obs.pp_report (Ir_obs.snapshot ())

let gates =
  Arg.(
    value
    & opt int 1_000_000
    & info [ "g"; "gates" ] ~docv:"N" ~doc:"Gate count of the design.")

let clock =
  Arg.(
    value
    & opt float 0.5
    & info [ "c"; "clock" ] ~docv:"GHZ" ~doc:"Target clock frequency in GHz.")

let fraction =
  Arg.(
    value
    & opt float 0.4
    & info [ "r"; "repeater-fraction" ] ~docv:"F"
        ~doc:"Usable repeater area as a fraction of the die.")

let permittivity =
  Arg.(
    value
    & opt float 3.9
    & info [ "k"; "permittivity" ] ~docv:"K" ~doc:"ILD relative permittivity.")

let miller =
  Arg.(
    value
    & opt float 2.0
    & info [ "m"; "miller" ] ~docv:"M" ~doc:"Miller coupling factor.")

let bunch_size =
  Arg.(
    value
    & opt int 10_000
    & info [ "bunch-size" ] ~docv:"B"
        ~doc:"WLD coarsening bunch size (the paper uses 10000).")

let activity_arg =
  Arg.(
    value
    & opt float Ir_assign.Problem.default_activity
    & info [ "activity" ] ~docv:"A"
        ~doc:
          "Switching activity factor of the repeater power model, in (0, \
           1] (default 0.15).  Only changes results under a finite \
           $(b,--power-budget).")

let power_budget_arg =
  Arg.(
    value
    & opt float infinity
    & info [ "power-budget" ] ~docv:"WATTS"
        ~doc:
          "Repeater power budget in watts ($(b,inf), the default, means \
           unconstrained — byte-identical to not having the flag).  A \
           finite budget caps the repeater area at its power equivalent \
           and requires the $(b,dp) algorithm.")

let algo =
  let algo_conv =
    Arg.enum
      [ ("dp", Ir_core.Rank.Dp); ("greedy", Ir_core.Rank.Greedy);
        ("exact", Ir_core.Rank.Exact { r_steps = 16 }) ]
  in
  Arg.(
    value
    & opt algo_conv Ir_core.Rank.Dp
    & info [ "algo" ] ~docv:"ALGO"
        ~doc:"Rank algorithm: $(b,dp) (optimal), $(b,greedy) (Figure 2 \
              baseline) or $(b,exact) (paper-literal DP, tiny instances).")

let csv_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Also write results as CSV to $(docv).")

let design_of ~node ~gates ~clock ~fraction =
  Ir_tech.Design.v ~node ~gates ~clock:(clock *. 1e9)
    ~repeater_fraction:fraction ()

let fail fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "ia_rank: %s@." msg;
      exit 1)
    fmt

(* Wrap every subcommand body: library preconditions and I/O failures
   become a one-line message and exit 1 (Cmdliner's own catch-all would
   exit 125 with a backtrace, which scripts cannot distinguish from a
   crash). *)
let guard f =
  try f () with
  | Invalid_argument msg | Failure msg | Sys_error msg -> fail "%s" msg
  | Unix.Unix_error (e, fn, arg) ->
      fail "%s%s: %s" fn
        (if arg = "" then "" else " " ^ arg)
        (Unix.error_message e)

let write_csv path f =
  let buf = Buffer.create 1024 in
  f buf;
  match
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (Buffer.contents buf))
  with
  | () -> Format.printf "wrote %s@." path
  | exception Sys_error msg -> fail "cannot write %s: %s" path msg

(* ---- rank ------------------------------------------------------------- *)

let rank_cmd =
  let run () jobs node gates clock fraction k m bunch_size algo activity
      power_budget stats =
    guard @@ fun () ->
    set_jobs jobs;
    if power_budget < infinity && algo <> Ir_core.Rank.Dp then
      fail "--power-budget requires the dp algorithm";
    let design = design_of ~node ~gates ~clock ~fraction in
    let materials = Ir_ia.Materials.v ~k ~miller:m () in
    let outcome =
      if
        power_budget < infinity
        || activity <> Ir_assign.Problem.default_activity
      then begin
        let problem =
          Ir_assign.Problem.with_activity
            (Ir_core.Rank.problem_of_design ~materials ~bunch_size design)
            activity
        in
        if power_budget < infinity then begin
          let problem =
            Ir_assign.Problem.with_power_budget problem power_budget
          in
          let outcome, w = Ir_core.Rank_grid.compute problem in
          Format.printf "%a@." Ir_core.Outcome.pp_human outcome;
          Option.iter
            (fun w ->
              Format.printf "repeater power %.4g W of %.4g W budget@."
                (Ir_power.Power.of_witness problem w)
                power_budget)
            w;
          outcome
        end
        else begin
          let outcome = Ir_core.Rank.compute ~algo problem in
          Format.printf "%a@." Ir_core.Outcome.pp_human outcome;
          outcome
        end
      end
      else begin
        (* No power flag in play: the historical one-call path, so the
           flags' defaults provably cannot perturb existing behavior. *)
        let outcome =
          Ir_core.Rank.of_design ~algo ~materials ~bunch_size design
        in
        Format.printf "%a@." Ir_core.Outcome.pp_human outcome;
        outcome
      end
    in
    (* Before the unassignable exit, so --stats is never swallowed. *)
    print_stats stats;
    if not outcome.assignable then exit 2
  in
  let term =
    Term.(
      const run $ logs_term $ jobs $ node $ gates $ clock $ fraction
      $ permittivity $ miller $ bunch_size $ algo $ activity_arg
      $ power_budget_arg $ stats_flag)
  in
  Cmd.v
    (Cmd.info "rank"
       ~doc:"Compute the rank of an interconnect architecture for a design.")
    term

(* ---- table4 ----------------------------------------------------------- *)

let table4_cmd =
  let columns =
    Arg.(
      value
      & opt (list string) [ "K"; "M"; "C"; "R" ]
      & info [ "columns" ] ~docv:"COLS"
          ~doc:"Comma-separated subset of K,M,C,R.")
  in
  let run () jobs node gates bunch_size columns activity power_budget csv
      stats =
    guard @@ fun () ->
    set_jobs jobs;
    let design = Ir_core.Rank.baseline_design ~gates node in
    let config =
      {
        Ir_sweep.Table4.default_config with
        design;
        bunch_size;
        activity;
        power_budget;
      }
    in
    let wanted = List.map String.uppercase_ascii columns in
    let sweeps =
      List.filter_map
        (fun (name, f) -> if List.mem name wanted then Some (f ()) else None)
        [
          ("K", fun () -> Ir_sweep.Table4.k_sweep ~config ());
          ("M", fun () -> Ir_sweep.Table4.m_sweep ~config ());
          ("C", fun () -> Ir_sweep.Table4.c_sweep ~config ());
          ("R", fun () -> Ir_sweep.Table4.r_sweep ~config ());
        ]
    in
    List.iter
      (fun s ->
        Ir_sweep.Report.sweep_table s Format.std_formatter;
        Format.printf "correlation with paper: %.4f, max |delta|: %.4f@.@."
          (Ir_sweep.Report.correlation
             (Ir_sweep.Table4.normalized s)
             s.paper)
          (let m =
             List.filter_map
               (fun (p, v) ->
                 Option.map
                   (fun (_, pv) -> (v, pv))
                   (List.find_opt (fun (pp, _) -> Float.abs (pp -. p) < 1e-6) s.paper))
               (Ir_sweep.Table4.normalized s)
           in
           List.fold_left (fun a (x, y) -> Float.max a (Float.abs (x -. y))) 0.0 m))
      sweeps;
    Option.iter
      (fun path ->
        write_csv path (fun buf ->
            List.iter (fun s -> Ir_sweep.Report.sweep_csv s buf) sweeps))
      csv;
    print_stats stats
  in
  let term =
    Term.(
      const run $ logs_term $ jobs $ node $ gates $ bunch_size $ columns
      $ activity_arg $ power_budget_arg $ csv_out $ stats_flag)
  in
  Cmd.v
    (Cmd.info "table4" ~doc:"Regenerate the paper's Table 4 (K/M/C/R sweeps).")
    term

(* ---- power ------------------------------------------------------------- *)

let power_cmd =
  let fractions =
    let frac_list = Arg.(list float) in
    Arg.(
      value
      & opt (some frac_list) None
      & info [ "fractions" ] ~docv:"F1,F2,..."
          ~doc:
            "Power budgets to evaluate, as fractions in (0, 1] of the \
             unconstrained optimum's own repeater power (default: an \
             11-point grid denser below 0.5, where the frontier bends).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Also write the frontier as $(docv)/power_pareto.csv.")
  in
  let run () jobs node gates bunch_size activity fractions out stats =
    guard @@ fun () ->
    set_jobs jobs;
    let design = Ir_core.Rank.baseline_design ~gates node in
    let config =
      { Ir_sweep.Table4.default_config with design; bunch_size }
    in
    let r = Ir_sweep.Power_pareto.run ?fractions ~config ~activity () in
    Format.printf "area-only optimum: %a@." Ir_core.Outcome.pp_human
      r.Ir_sweep.Power_pareto.unconstrained;
    Format.printf "unconstrained repeater power: %.4g W (activity %.2f)@.@."
      r.Ir_sweep.Power_pareto.unconstrained_power
      r.Ir_sweep.Power_pareto.activity;
    if r.Ir_sweep.Power_pareto.rows = [] then
      Format.printf
        "no frontier: the baseline is unassignable or repeater-free@."
    else begin
      Format.printf "%-9s  %-11s  %-11s  %6s  %s@." "fraction" "budget(W)"
        "power(W)" "rank" "normalized";
      List.iter
        (fun (row : Ir_sweep.Power_pareto.row) ->
          Format.printf "%-9.2f  %-11.4g  %-11.4g  %6d  %.6f@."
            row.fraction row.budget row.power
            row.outcome.Ir_core.Outcome.rank_wires
            (Ir_core.Outcome.normalized row.outcome))
        r.Ir_sweep.Power_pareto.rows
    end;
    Option.iter
      (fun dir ->
        match Ir_sweep.Export.write_power_pareto ~dir r with
        | Ok path -> Format.printf "wrote %s@." path
        | Error e -> fail "cannot write power_pareto.csv: %s" e)
      out;
    print_stats stats
  in
  let term =
    Term.(
      const run $ logs_term $ jobs $ node $ gates $ bunch_size $ activity_arg
      $ fractions $ out $ stats_flag)
  in
  Cmd.v
    (Cmd.info "power"
       ~doc:
         "The rank-vs-power Pareto frontier: how much rank the baseline \
          keeps as the repeater power budget tightens (area budget held \
          fixed).")
    term

(* ---- cross ------------------------------------------------------------ *)

let cross_cmd =
  let run () jobs bunch_size stats =
    guard @@ fun () ->
    set_jobs jobs;
    let matrix =
      [
        (Ir_tech.Node.N180, 1_000_000); (Ir_tech.Node.N130, 1_000_000);
        (Ir_tech.Node.N130, 4_000_000); (Ir_tech.Node.N90, 4_000_000);
      ]
    in
    Ir_sweep.Report.cross_node_table
      (Ir_sweep.Cross_node.run ~bunch_size ~matrix ())
      Format.std_formatter;
    print_stats stats
  in
  Cmd.v
    (Cmd.info "cross" ~doc:"Baseline ranks across nodes and design sizes.")
    Term.(const run $ logs_term $ jobs $ bunch_size $ stats_flag)

(* ---- figure2 ---------------------------------------------------------- *)

let figure2_cmd =
  let run () =
    guard @@ fun () ->
    let s = Ir_sweep.Figure2.scenario () in
    Format.printf "greedy:  %a@." Ir_core.Outcome.pp_human s.greedy;
    Format.printf "optimal: %a@." Ir_core.Outcome.pp_human s.optimal;
    Format.printf "exact:   %a@." Ir_core.Outcome.pp_human s.exact
  in
  Cmd.v
    (Cmd.info "figure2"
       ~doc:"Reproduce the paper's Figure 2 greedy-vs-optimal counterexample.")
    Term.(const run $ logs_term)

(* ---- tables ----------------------------------------------------------- *)

let tables_cmd =
  let run () =
    List.iter
      (fun n ->
        Format.printf "%a@.@." Ir_tech.Stack.pp_table3
          (Ir_tech.Stack.of_node n))
      [ Ir_tech.Node.N180; Ir_tech.Node.N130; Ir_tech.Node.N90 ];
    Format.printf
      "Baseline parameters (Table 2): k=3.9, Miller=2, repeater \
       fraction=0.4,@.2 semi-global + 1 global layer-pairs, 500 MHz.@."
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Print the paper's Table 2/3 parameter tables.")
    Term.(const run $ logs_term)

(* ---- assign ----------------------------------------------------------- *)

let assign_cmd =
  let run () node gates clock fraction k m bunch_size =
    guard @@ fun () ->
    let design = design_of ~node ~gates ~clock ~fraction in
    let materials = Ir_ia.Materials.v ~k ~miller:m () in
    let problem =
      Ir_core.Rank.problem_of_design ~materials ~bunch_size design
    in
    let a = Ir_core.Assignment.extract problem in
    let witness_ok =
      match Ir_core.Assignment.check problem a with
      | Ok () -> true
      | Error e ->
          Format.printf "WITNESS INVALID: %s@." e;
          false
    in
    Format.printf "%a@." (Ir_core.Assignment.pp_human problem) a;
    (* An invalid witness is an internal-consistency failure, not a
       result — scripts must see it in the exit status. *)
    if not witness_ok then exit 1
  in
  Cmd.v
    (Cmd.info "assign"
       ~doc:"Show the optimal wire assignment behind the rank (witness).")
    Term.(
      const run $ logs_term $ node $ gates $ clock $ fraction $ permittivity
      $ miller $ bunch_size)

(* ---- layers ----------------------------------------------------------- *)

let layers_cmd =
  let target =
    Arg.(
      value
      & opt (some float) None
      & info [ "target" ] ~docv:"RANK"
          ~doc:"Normalized rank target; default checks assignability only.")
  in
  let run () node gates bunch_size target =
    guard @@ fun () ->
    let design = Ir_core.Rank.baseline_design ~gates node in
    let result =
      match target with
      | None -> Ir_ext.Layers.min_pairs_for_assignability ~bunch_size design
      | Some t -> Ir_ext.Layers.min_pairs_for_rank ~bunch_size ~target:t design
    in
    match result with
    | Error e ->
        Format.printf "%s@." e;
        exit 2
    | Ok (first, steps) ->
        List.iter
          (fun (s : Ir_ext.Layers.step) ->
            Format.printf "%d local + %d semi-global + %d global: %a@."
              s.structure.Ir_ia.Arch.local_pairs
              s.structure.Ir_ia.Arch.semi_global_pairs
              s.structure.Ir_ia.Arch.global_pairs Ir_core.Outcome.pp_human
              s.outcome)
          steps;
        Format.printf "-> first sufficient: %d semi-global + %d global@."
          first.structure.Ir_ia.Arch.semi_global_pairs
          first.structure.Ir_ia.Arch.global_pairs
  in
  Cmd.v
    (Cmd.info "layers"
       ~doc:"Minimum layer-pairs for assignability or a rank target.")
    Term.(const run $ logs_term $ node $ gates $ bunch_size $ target)

(* ---- ntier ------------------------------------------------------------ *)

let ntier_cmd =
  let tiers =
    Arg.(
      value & opt int 4
      & info [ "tiers" ] ~docv:"N" ~doc:"Number of n-tier wiring tiers.")
  in
  let run () node gates bunch_size tiers =
    guard @@ fun () ->
    let design = Ir_core.Rank.baseline_design ~gates node in
    List.iter
      (fun (t : Ir_ext.Ntier.tier) ->
        Format.printf
          "%-12s pitch %.3f um, lengths [%.1f, %.1f] um, demand %.2f m@."
          (Ir_tech.Metal_class.to_string t.cls)
          (Ir_phys.Units.to_um (Ir_tech.Geometry.pitch t.geometry))
          (Ir_phys.Units.to_um t.l_min)
          (Ir_phys.Units.to_um t.l_max)
          t.demand)
      (Ir_ext.Ntier.design_tiers ~tiers design);
    let `Ntier n, `Baseline b =
      Ir_ext.Ntier.compare_with_baseline ~tiers ~bunch_size design
    in
    Format.printf "n-tier rank  : %a@." Ir_core.Outcome.pp_human n;
    Format.printf "baseline rank: %a@." Ir_core.Outcome.pp_human b
  in
  Cmd.v
    (Cmd.info "ntier"
       ~doc:"Generate an n-tier architecture and compare it by rank.")
    Term.(const run $ logs_term $ node $ gates $ bunch_size $ tiers)

(* ---- optimize --------------------------------------------------------- *)

let optimize_cmd =
  let anneal_steps =
    Arg.(
      value
      & opt (some int) None
      & info [ "anneal" ] ~docv:"STEPS"
          ~doc:"Also refine with simulated annealing for $(docv) steps.")
  in
  let run () jobs node gates clock fraction bunch_size anneal_steps stats =
    guard @@ fun () ->
    set_jobs jobs;
    let design = design_of ~node ~gates ~clock ~fraction in
    let best, all = Ir_ext.Optimizer.optimize ~bunch_size design in
    Format.printf "evaluated %d grid candidates@." (List.length all);
    Format.printf "best: %d semi-global + %d global pairs, pitch x%.2f, \
                   thickness x%.2f -> %a@."
      best.structure.Ir_ia.Arch.semi_global_pairs
      best.structure.Ir_ia.Arch.global_pairs best.pitch_scale
      best.thickness_scale Ir_core.Outcome.pp_human best.outcome;
    Option.iter
      (fun steps ->
        let r = Ir_ext.Anneal.optimize ~steps ~bunch_size design in
        Format.printf
          "annealed (%d evaluations, %d accepted): %a@." r.evaluations
          r.accepted Ir_core.Outcome.pp_human r.outcome)
      anneal_steps;
    print_stats stats
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Directly optimize the architecture by rank (Section 6).")
    Term.(
      const run $ logs_term $ jobs $ node $ gates $ clock $ fraction
      $ bunch_size $ anneal_steps $ stats_flag)

(* ---- wld -------------------------------------------------------------- *)

let wld_cmd =
  let rent =
    Arg.(
      value & opt float 0.6
      & info [ "rent" ] ~docv:"P" ~doc:"Rent exponent of the Davis WLD.")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Write the WLD as CSV to $(docv).")
  in
  let load =
    Arg.(
      value
      & opt (some string) None
      & info [ "load" ] ~docv:"FILE"
          ~doc:"Summarize a WLD loaded from $(docv) instead of generating \
                one.")
  in
  let run () gates rent save load =
    guard @@ fun () ->
    let wld =
      match load with
      | Some path -> (
          match Ir_wld.Io.load path with
          | Ok d -> d
          | Error e ->
              Format.eprintf "cannot load %s: %s@." path e;
              exit 1)
      | None ->
          Ir_wld.Davis.generate
            (Ir_wld.Davis.params ~rent_p:rent ~gates ())
    in
    let s = Ir_wld.Stats.summary wld in
    Format.printf
      "wires %d, mean %.2f, std %.2f, median %.1f, p90 %.1f, p99 %.1f, \
       max %.1f@.total wire length %.3g (same unit as lengths)@.@."
      s.total s.mean s.std s.median s.p90 s.p99 s.l_max s.total_length;
    Ir_wld.Stats.pp_histogram Format.std_formatter wld;
    Format.printf "@.";
    Option.iter
      (fun path ->
        match Ir_wld.Io.save path wld with
        | Ok () -> Format.printf "wrote %s@." path
        | Error e ->
            Format.eprintf "cannot save %s: %s@." path e;
            exit 1)
      save
  in
  Cmd.v
    (Cmd.info "wld"
       ~doc:"Generate, summarize, load or save wire length distributions.")
    Term.(const run $ logs_term $ gates $ rent $ save $ load)

(* ---- variation -------------------------------------------------------- *)

let variation_cmd =
  let samples =
    Arg.(
      value & opt int 25
      & info [ "samples" ] ~docv:"N" ~doc:"Monte-Carlo sample count.")
  in
  let sigma =
    Arg.(
      value & opt float 0.05
      & info [ "sigma" ] ~docv:"S"
          ~doc:"Relative standard deviation applied to every electrical \
                parameter.")
  in
  let run () node gates bunch_size samples sigma =
    guard @@ fun () ->
    let design = Ir_core.Rank.baseline_design ~gates node in
    let spec =
      { Ir_ext.Variation.sigma_k = sigma; sigma_miller = sigma;
        sigma_rho = sigma; sigma_device = sigma }
    in
    let s = Ir_ext.Variation.run ~spec ~samples ~bunch_size design in
    Format.printf
      "nominal %.6f@.mean %.6f  std %.6f  min %.6f  max %.6f  (%d samples)@."
      s.nominal s.mean s.std s.min s.max s.samples
  in
  Cmd.v
    (Cmd.info "variation"
       ~doc:"Rank sensitivity to electrical-parameter uncertainty.")
    Term.(const run $ logs_term $ node $ gates $ bunch_size $ samples $ sigma)

(* ---- serve ------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let tcp_conv =
  let parse s =
    let bad () =
      Error
        (`Msg
          (Printf.sprintf "invalid TCP endpoint %S (expected PORT or HOST:PORT)"
             s))
    in
    match String.rindex_opt s ':' with
    | None -> (
        match int_of_string_opt s with
        | Some p when p >= 0 && p < 65536 -> Ok ("127.0.0.1", p)
        | _ -> bad ())
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p >= 0 && p < 65536 && host <> "" -> Ok (host, p)
        | _ -> bad ())
  in
  let print ppf (h, p) = Format.fprintf ppf "%s:%d" h p in
  Arg.conv (parse, print)

let tcp_arg =
  Arg.(
    value
    & opt (some tcp_conv) None
    & info [ "tcp" ] ~docv:"[HOST:]PORT"
        ~doc:
          "TCP endpoint (default host 127.0.0.1; port 0 picks an ephemeral \
           port, logged on startup).")

let serve_cmd =
  let stdio =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:"Serve one line-delimited session on stdin/stdout instead \
                of listening on a socket.")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Persist results under $(docv) (validated on read; survives \
                restarts).")
  in
  let cache_entries =
    Arg.(
      value & opt int 512
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:"In-memory result cache capacity (LRU).")
  in
  let table_pool =
    Arg.(
      value & opt int 8
      & info [ "table-pool" ] ~docv:"N"
          ~doc:"Warm DP-table families kept resident (LRU).")
  in
  let queue_capacity =
    Arg.(
      value & opt int 64
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:"Pending-request bound; requests beyond it are shed with a \
                retryable overloaded error.")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N" ~doc:"Computation worker threads.")
  in
  let request_timeout =
    Arg.(
      value & opt float 300.
      & info [ "request-timeout" ] ~docv:"SECONDS"
          ~doc:"Per-request deadline; a waiter past it receives a timeout \
                error while the computation still populates the cache.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Shard the daemon across $(docv) worker processes (spawned from \
             this binary), partitioned by warm-table family so no family \
             is built twice.  With the default 1 everything runs in this \
             process.")
  in
  let snapshot_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot-dir" ] ~docv:"DIR"
          ~doc:
            "Persist built warm DP tables under $(docv) (checksummed, \
             validated on load); a restarted daemon restores them and \
             answers warm immediately.")
  in
  let run () stdio socket tcp shards snapshot_dir cache_dir cache_entries
      table_pool queue_capacity workers request_timeout stats =
    guard @@ fun () ->
    let on_tcp_listen port =
      let host = match tcp with Some (h, _) -> h | None -> "127.0.0.1" in
      Logs.app (fun m -> m "serving on tcp %s:%d" host port)
    in
    if shards > 1 then begin
      if stdio then fail "--stdio cannot be combined with --shards";
      if socket = None && tcp = None then
        fail "serve --shards needs --socket PATH and/or --tcp [HOST:]PORT";
      let dir =
        match socket with
        | Some s -> s ^ ".shards"
        | None ->
            Filename.concat
              (Filename.get_temp_dir_name ())
              (Printf.sprintf "ia-rank-shards-%d" (Unix.getpid ()))
      in
      let fleet =
        match
          Ir_serve.Shard.start ~workers ~cache_entries ~table_pool
            ~queue_capacity ~request_timeout ?cache_dir ?snapshot_dir
            ~exe:Sys.executable_name ~shards ~dir ()
        with
        | Ok f -> f
        | Error e -> fail "shards: %s" e
      in
      let stop _ = Ir_serve.Shard.shutdown fleet in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      Option.iter (fun s -> Logs.app (fun m -> m "serving on %s" s)) socket;
      (match Ir_serve.Shard.serve fleet ?tcp ~on_tcp_listen ?socket () with
      | Ok () -> ()
      | Error e -> fail "serve: %s" e);
      print_stats stats
    end
    else begin
      let cache =
        match
          Ir_serve.Cache.create ~capacity:cache_entries ?dir:cache_dir ()
        with
        | Ok c -> c
        | Error e -> fail "cache: %s" e
      in
      let snapshot =
        Option.map
          (fun d ->
            match Ir_serve.Snapshot.create ~dir:d with
            | Ok s -> s
            | Error e -> fail "snapshot: %s" e)
          snapshot_dir
      in
      let srv =
        Ir_serve.Server.create ~workers ~queue_capacity ~table_pool
          ~request_timeout ?snapshot ~cache ()
      in
      let finish () =
        Ir_serve.Server.shutdown srv;
        Ir_serve.Server.join srv;
        print_stats stats
      in
      if stdio then begin
        Ir_serve.Server.serve_stdio srv Unix.stdin Unix.stdout;
        finish ()
      end
      else if socket = None && tcp = None then
        fail "serve needs --socket PATH, --tcp [HOST:]PORT or --stdio"
      else begin
        (* [shutdown] is an atomic flag plus a self-pipe write, so it is
           safe to call straight from the signal handler; the accept
           loop notices via select and drains. *)
        let stop _ = Ir_serve.Server.shutdown srv in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
        Option.iter (fun s -> Logs.app (fun m -> m "serving on %s" s)) socket;
        (match
           Ir_serve.Server.serve_listeners srv ?tcp ~on_tcp_listen ?socket ()
         with
        | Ok () -> ()
        | Error e -> fail "serve: %s" e);
        finish ()
      end
    end
  in
  let term =
    Term.(
      const run $ logs_term $ stdio $ socket_arg $ tcp_arg $ shards
      $ snapshot_dir $ cache_dir $ cache_entries $ table_pool $ queue_capacity
      $ workers $ request_timeout $ stats_flag)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the rank query daemon: content-addressed result cache, \
             request coalescing, warm DP-table reuse; optionally sharded \
             across processes behind a TCP listener.")
    term

(* ---- query ------------------------------------------------------------ *)

let query_cmd =
  let rent =
    Arg.(
      value & opt float 0.6
      & info [ "rent" ] ~docv:"P" ~doc:"Rent exponent of the Davis WLD.")
  in
  let fan_out =
    Arg.(
      value & opt float 3.0
      & info [ "fan-out" ] ~docv:"F" ~doc:"Average fan-out of the Davis WLD.")
  in
  let wld_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "wld" ] ~docv:"FILE"
          ~doc:"Send the WLD from $(docv) (CSV, strictly ascending \
                lengths) instead of the design's Davis distribution.")
  in
  let greedy =
    Arg.(
      value & flag
      & info [ "greedy" ] ~doc:"Use the greedy baseline algorithm.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the canonical result payload (JSON) instead of the \
                human form.")
  in
  let ping =
    Arg.(
      value & flag
      & info [ "ping" ] ~doc:"Just check that the server is answering.")
  in
  let server_stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print the server's counters instead of querying (against a \
             sharded router: fleet-wide aggregated counters).")
  in
  let run () socket tcp node gates clock fraction k m bunch_size rent fan_out
      wld_file greedy activity power_budget json ping server_stats =
    guard @@ fun () ->
    let client =
      match (socket, tcp) with
      | Some _, Some _ -> fail "query takes --socket or --tcp, not both"
      | None, None -> fail "query needs --socket PATH or --tcp [HOST:]PORT"
      | Some socket, None -> (
          match Ir_serve.Client.connect ~socket with
          | Ok c -> c
          | Error e -> fail "%s" e)
      | None, Some (host, port) -> (
          match Ir_serve.Client.connect_tcp ~host ~port with
          | Ok c -> c
          | Error e -> fail "%s" e)
    in
    Fun.protect ~finally:(fun () -> Ir_serve.Client.close client)
    @@ fun () ->
    if ping then (
      match Ir_serve.Client.ping client with
      | Ok () -> Format.printf "pong@."
      | Error e -> fail "%s" e)
    else if server_stats then (
      match Ir_serve.Client.stats client with
      | Ok kvs ->
          List.iter (fun (name, v) -> Format.printf "%s: %d@." name v) kvs
      | Error e -> fail "%s" e)
    else begin
      let wld_csv =
        Option.map
          (fun path ->
            match In_channel.with_open_text path In_channel.input_all with
            | s -> s
            | exception Sys_error e -> fail "cannot read %s: %s" path e)
          wld_file
      in
      (* Send the power fields only when they can change the answer —
         the same convention the fingerprint uses — so default-flag
         queries keep their historical wire form and digests. *)
      let power_budget =
        if power_budget < infinity then Some power_budget else None
      in
      let activity =
        if
          activity <> Ir_assign.Problem.default_activity
          && power_budget <> None
        then Some activity
        else None
      in
      let q =
        Ir_serve.Protocol.query ~rent_p:rent ~fan_out ~clock:(clock *. 1e9)
          ~repeater_fraction:fraction ~k ~miller:m ~bunch_size ~greedy
          ?power_budget ?activity ?wld_csv
          ~node:(Ir_tech.Node.name node)
          ~gates ()
      in
      match Ir_serve.Client.query client q with
      | Error e -> fail "%s" e
      | Ok (outcome, source, payload) ->
          if json then print_string (payload ^ "\n")
          else
            Format.printf "%a@.(served from %s)@." Ir_core.Outcome.pp_human
              outcome source;
          if not outcome.assignable then exit 2
    end
  in
  let term =
    Term.(
      const run $ logs_term $ socket_arg $ tcp_arg $ node $ gates $ clock
      $ fraction $ permittivity $ miller $ bunch_size $ rent $ fan_out
      $ wld_file $ greedy $ activity_arg $ power_budget_arg $ json $ ping
      $ server_stats)
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Ask a running serve daemon for a rank (exit 2 when the design \
             is unassignable, like $(b,rank)).")
    term

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "ia_rank" ~version:"1.0.0"
             ~doc:
               "Rank metric for interconnect architectures (DATE 2003 \
                reproduction).")
          [ rank_cmd; table4_cmd; power_cmd; cross_cmd; figure2_cmd;
            tables_cmd; assign_cmd; layers_cmd; ntier_cmd; optimize_cmd;
            wld_cmd; variation_cmd; serve_cmd; query_cmd ]))
