let rec ensure_dir dir =
  if Sys.file_exists dir then
    if Sys.is_directory dir then Ok ()
    else
      Error
        (Printf.sprintf
           "%s exists and is not a directory (remove it or pick another \
            output directory)"
           dir)
  else
    let parent = Filename.dirname dir in
    (* [dirname] is a fixpoint at roots ("/", "."), which always exist,
       so the recursion terminates there. *)
    match if parent = dir then Ok () else ensure_dir parent with
    | Error _ as e -> e
    | Ok () -> (
        match Sys.mkdir dir 0o755 with
        | () -> Ok ()
        | exception Sys_error msg ->
            (* Another process may have created it between the existence
               check and the mkdir; that is success, not an error. *)
            if Sys.file_exists dir && Sys.is_directory dir then Ok ()
            else Error msg)

let write_file path contents =
  match
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc contents)
  with
  | () -> Ok path
  | exception Sys_error msg -> Error msg

let sweep_csv_path ~dir (sweep : Table4.sweep) =
  Filename.concat dir
    (Printf.sprintf "table4_%s.csv" (String.lowercase_ascii sweep.name))

(* [sweep_csv_path] lowercases the sweep name, so distinct sweeps can
   collide on one file ("K" and "k" both map to table4_k.csv) — detect
   that up front instead of silently overwriting the earlier sweep. *)
let sweep_path_collision ~dir sweeps =
  let seen = Hashtbl.create 8 in
  List.find_map
    (fun (s : Table4.sweep) ->
      let path = sweep_csv_path ~dir s in
      match Hashtbl.find_opt seen path with
      | Some earlier when earlier <> s.name ->
          Some
            (Printf.sprintf
               "sweeps %S and %S both export to %s; rename one" earlier
               s.name path)
      | _ ->
          Hashtbl.replace seen path s.name;
          None)
    sweeps

let write_sweeps ~dir sweeps =
  match sweep_path_collision ~dir sweeps with
  | Some msg -> Error msg
  | None -> (
      match ensure_dir dir with
      | Error _ as e -> e
      | Ok () ->
          let rec loop acc = function
            | [] -> Ok (List.rev acc)
            | sweep :: rest -> (
                let buf = Buffer.create 1024 in
                Report.sweep_csv sweep buf;
                match
                  write_file (sweep_csv_path ~dir sweep)
                    (Buffer.contents buf)
                with
                | Ok path -> loop (path :: acc) rest
                | Error _ as e -> e)
          in
          loop [] sweeps)

let power_pareto_csv_path ~dir = Filename.concat dir "power_pareto.csv"

let write_power_pareto ~dir (r : Power_pareto.result) =
  match ensure_dir dir with
  | Error msg -> Error msg
  | Ok () ->
      let buf = Buffer.create 1024 in
      Report.csv
        ~header:
          [
            "fraction"; "budget_watts"; "power_watts"; "rank_wires";
            "total_wires"; "normalized"; "boundary_bunch"; "assignable";
            "exact";
          ]
        ~rows:
          (List.map
             (fun (row : Power_pareto.row) ->
               let o = row.outcome in
               [
                 Printf.sprintf "%.4f" row.fraction;
                 (* %.6e keeps the golden file stable and readable; the
                    byte-exact frontier lives in the tests, not here. *)
                 Printf.sprintf "%.6e" row.budget;
                 Printf.sprintf "%.6e" row.power;
                 string_of_int o.Ir_core.Outcome.rank_wires;
                 string_of_int o.Ir_core.Outcome.total_wires;
                 Printf.sprintf "%.6f" (Ir_core.Outcome.normalized o);
                 string_of_int o.Ir_core.Outcome.boundary_bunch;
                 (if o.Ir_core.Outcome.assignable then "true" else "false");
                 (if o.Ir_core.Outcome.exact then "true" else "false");
               ])
             r.Power_pareto.rows)
        buf;
      write_file (power_pareto_csv_path ~dir) (Buffer.contents buf)

let write_cross ~dir cells =
  match ensure_dir dir with
  | Error msg -> Error msg
  | Ok () ->
      let buf = Buffer.create 512 in
      Report.csv
        ~header:[ "node"; "gates"; "normalized"; "rank_wires"; "total" ]
        ~rows:
          (List.map
             (fun (c : Cross_node.cell) ->
               [
                 Ir_tech.Node.name c.node;
                 string_of_int c.gates;
                 Printf.sprintf "%.6f" (Ir_core.Outcome.normalized c.outcome);
                 string_of_int c.outcome.Ir_core.Outcome.rank_wires;
                 string_of_int c.outcome.Ir_core.Outcome.total_wires;
               ])
             cells)
        buf;
      write_file (Filename.concat dir "cross_node.csv") (Buffer.contents buf)

(* ---- machine-readable sweep benchmark -------------------------------- *)

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* %.17g round-trips every finite float; ranks and wall times are always
   finite here. *)
let json_float x = Printf.sprintf "%.17g" x

let json_list f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"

let json_obj fields =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields)
  ^ "}"

let bench_json_path ~dir = Filename.concat dir "BENCH_sweeps.json"

let json_metrics (snap : Ir_obs.snapshot) =
  json_obj
    [
      ( "counters",
        json_obj
          (List.map
             (fun (name, v) -> (name, string_of_int v))
             snap.Ir_obs.counters) );
      ( "gauges",
        json_obj
          (List.map
             (fun (name, v) -> (name, string_of_int v))
             snap.Ir_obs.gauges) );
      ( "spans",
        json_obj
          (List.map
             (fun (name, { Ir_obs.calls; seconds }) ->
               ( name,
                 json_obj
                   [
                     ("calls", string_of_int calls);
                     ("seconds", json_float seconds);
                   ] ))
             snap.Ir_obs.spans) );
    ]

type parallel_report = {
  requested_jobs : int;
  effective_jobs : int;
  jobs1_seconds : float;
  jobsn_seconds : float option;
}

let json_parallel p =
  json_obj
    ([
       ("requested_jobs", string_of_int p.requested_jobs);
       ("effective_jobs", string_of_int p.effective_jobs);
       ("jobs1_seconds", json_float p.jobs1_seconds);
     ]
    @
    match p.jobsn_seconds with
    | None ->
        (* Single-core box: the parallel leg would have rerun identical
           work at effective_jobs = 1 and flagged its own overhead as a
           "regression".  Schema 6 reports the skip explicitly instead
           of a false positive. *)
        [ ("parallel_regression", json_string "skipped_single_core") ]
    | Some jn ->
        [
          ("jobsN_seconds", json_float jn);
          ("speedup", json_float (p.jobs1_seconds /. Float.max 1e-9 jn));
          (* The machine-readable version of the bench's stdout warning:
             the parallel table4 leg took longer than the sequential one,
             i.e. parallelism lost to its own overhead on this
             machine/workload. *)
          ( "parallel_regression",
            if jn > p.jobs1_seconds then "true" else "false" );
        ])

type scaling_report = {
  max_jobs : int;
  points : (int * float) list;
}

(* Marginal-gain knee: walk the ascending-jobs curve and keep the last
   point whose speedup still improves on the previous point's by >= 5% —
   past it, extra workers buy nothing worth their GC synchronization. *)
let scaling_knee ~jobs1 points =
  let speedup s = jobs1 /. Float.max 1e-9 s in
  let rec walk knee prev = function
    | [] -> knee
    | (j, s) :: rest ->
        if speedup s >= 1.05 *. speedup prev then walk j s rest
        else walk knee prev rest
  in
  match points with
  | [] -> 1
  | (j0, s0) :: rest -> walk j0 s0 rest

let json_scaling sc =
  match List.assoc_opt 1 sc.points with
  | None -> json_string "missing_jobs1_point"
  | Some jobs1 ->
      let point (j, s) =
        json_obj
          ([
             ("jobs", string_of_int j);
             ("seconds", json_float s);
             ("speedup", json_float (jobs1 /. Float.max 1e-9 s));
           ]
          @
          if j = 1 then []
          else
            [ ("parallel_regression", if s > jobs1 then "true" else "false") ])
      in
      let multi = List.filter (fun (j, _) -> j > 1) sc.points in
      let status =
        if multi = [] then "skipped_single_core"
        else if List.exists (fun (_, s) -> s > jobs1) multi then "regression"
        else "ok"
      in
      json_obj
        [
          ("max_jobs", string_of_int sc.max_jobs);
          ("status", json_string status);
          ("knee_jobs", string_of_int (scaling_knee ~jobs1 sc.points));
          ("points", json_list point sc.points);
        ]

type serving_report = {
  trace_requests : int;
  distinct_queries : int;
  hit_rate : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  computes : int;
  table_builds : int;
  counters_match : bool;
}

let json_serving s =
  json_obj
    [
      ("trace_requests", string_of_int s.trace_requests);
      ("distinct_queries", string_of_int s.distinct_queries);
      ("hit_rate", json_float s.hit_rate);
      ("p50_ms", json_float s.p50_ms);
      ("p95_ms", json_float s.p95_ms);
      ("p99_ms", json_float s.p99_ms);
      ("computes", string_of_int s.computes);
      ("table_builds", string_of_int s.table_builds);
      ("counters_match", if s.counters_match then "true" else "false");
    ]

type grid_report = {
  grid_points : int;
  grid_planes : int;
  per_point_seconds : float;
  grid_seconds : float;
  grid_identical : bool;
  grid_counters_match : bool;
  perturb_recomputed : int;
  perturb_grid_cells : int;
  perturb_seconds : float;
  full_eval_seconds : float;
}

(* The CI gate reads [status]; anything but "ok" fails the build.  The
   conditions are the grid engine's contracts — byte-identity with an
   unshared evaluation of every point, jobs-invariant structural
   counters, and perturb
   touching strictly fewer cells than a full re-evaluation.  The
   measured speedup is reported but never gated: it is hardware truth,
   not a correctness property. *)
let grid_status g =
  if not g.grid_identical then "mismatch"
  else if not g.grid_counters_match then "counters_mismatch"
  else if g.perturb_recomputed >= g.perturb_grid_cells then
    "perturb_not_incremental"
  else "ok"

let json_grid g =
  json_obj
    [
      ("status", json_string (grid_status g));
      ("points", string_of_int g.grid_points);
      ("planes", string_of_int g.grid_planes);
      ("per_point_seconds", json_float g.per_point_seconds);
      ("grid_seconds", json_float g.grid_seconds);
      ( "speedup",
        json_float (g.per_point_seconds /. Float.max 1e-9 g.grid_seconds) );
      ("identical", if g.grid_identical then "true" else "false");
      ("counters_match", if g.grid_counters_match then "true" else "false");
      ( "perturb",
        json_obj
          [
            ("recomputed_cells", string_of_int g.perturb_recomputed);
            ("grid_cells", string_of_int g.perturb_grid_cells);
            ("perturb_seconds", json_float g.perturb_seconds);
            ("full_eval_seconds", json_float g.full_eval_seconds);
          ] );
    ]

type pruning_report = {
  pruning_points : int;
  baseline_seconds : float;
  pruned_seconds : float;
  front_inserts_baseline : int;
  front_inserts_pruned : int;
  witness_probes_baseline : int;
  witness_probes_pruned : int;
  states_pruned : int;
  oracle_calls_saved : int;
  incumbent_updates : int;
  memo_preempted : int;
  pruning_identical : bool;
  pruning_counters_match : bool;
}

(* The CI gate reads [status]; anything but "ok" fails the build.  The
   pruning layer's contracts: the pruned grid must answer every
   Table-4 cell byte-identically to the unpruned one, and the bounds/*
   tallies must not depend on the worker count (the incumbent is only
   published at sequential barriers).  The reduction itself — how much
   work the bound actually cuts — is reported but never gated: it is a
   property of the corpus, not a correctness claim. *)
let pruning_status p =
  if not p.pruning_identical then "mismatch"
  else if not p.pruning_counters_match then "counters_mismatch"
  else "ok"

let reduction ~baseline ~pruned =
  if baseline <= 0 then 0.0
  else float_of_int (baseline - pruned) /. float_of_int baseline

let json_pruning p =
  json_obj
    [
      ("status", json_string (pruning_status p));
      ("points", string_of_int p.pruning_points);
      ("baseline_seconds", json_float p.baseline_seconds);
      ("pruned_seconds", json_float p.pruned_seconds);
      ("front_inserts_baseline", string_of_int p.front_inserts_baseline);
      ("front_inserts_pruned", string_of_int p.front_inserts_pruned);
      ( "front_insert_reduction",
        json_float
          (reduction ~baseline:p.front_inserts_baseline
             ~pruned:p.front_inserts_pruned) );
      ("witness_probes_baseline", string_of_int p.witness_probes_baseline);
      ("witness_probes_pruned", string_of_int p.witness_probes_pruned);
      ( "witness_probe_reduction",
        json_float
          (reduction ~baseline:p.witness_probes_baseline
             ~pruned:p.witness_probes_pruned) );
      ("states_pruned", string_of_int p.states_pruned);
      ("oracle_calls_saved", string_of_int p.oracle_calls_saved);
      ("incumbent_updates", string_of_int p.incumbent_updates);
      ("memo_preempted", string_of_int p.memo_preempted);
      ("identical", if p.pruning_identical then "true" else "false");
      ( "counters_match",
        if p.pruning_counters_match then "true" else "false" );
    ]

type power_report = {
  power_points : int;
  unconstrained_power : float;
  power_identity_ok : bool;
  power_counters_match : bool;
  power_engines_agree : bool;
  power_monotone : bool;
  power_seconds : float;
}

(* The CI gate reads [status]; anything but "ok" fails the build.  The
   power budget's contracts, in soundness order: an infinite budget
   must leave every rank, exact flag and counter byte-identical to a
   power-free run (the anchor everything else stands on); the frontier's
   counters must not depend on the worker count; the frontier, answered
   from one resident plane, must agree point-for-point with independent
   one-cell computes; and the frontier must
   be monotone with the full-spend point recovering the unconstrained
   rank.  The frontier's shape — where it bends, what rank a half-power
   budget keeps — is data, never gated. *)
let power_status p =
  if not p.power_identity_ok then "identity_broken"
  else if not p.power_counters_match then "counters_mismatch"
  else if not p.power_engines_agree then "engine_mismatch"
  else if not p.power_monotone then "frontier_not_monotone"
  else "ok"

let json_power p =
  json_obj
    [
      ("status", json_string (power_status p));
      ("points", string_of_int p.power_points);
      ("unconstrained_power_watts", json_float p.unconstrained_power);
      ("identity_ok", if p.power_identity_ok then "true" else "false");
      ( "counters_match",
        if p.power_counters_match then "true" else "false" );
      ("engines_agree", if p.power_engines_agree then "true" else "false");
      ("monotone", if p.power_monotone then "true" else "false");
      ("seconds", json_float p.power_seconds);
    ]

type serving_sharded_report = {
  shards : int;
  clients : int;
  storm_requests : int;
  distinct_families : int;
  sh_distinct_queries : int;
  sh_p50_ms : float;
  sh_p95_ms : float;
  sh_p99_ms : float;
  shed_rate : float;
  coalesce_rate : float;
  table_builds_per_shard : int list;
  byte_identical : bool;
}

(* The CI gate reads [status]; anything but "ok" fails the build.  The
   conditions mirror the serving tier's contracts: sharded answers must
   be byte-identical to single-process cold computes; the fleet must
   build each warm-table family at most once (that is what routing by
   family buys); and backpressure must shed a bounded fraction, not the
   majority, of a plausible storm. *)
let sharded_status s =
  if not s.byte_identical then "mismatch"
  else if
    List.fold_left ( + ) 0 s.table_builds_per_shard > s.distinct_families
  then "duplicate_family_builds"
  else if s.shed_rate > 0.5 then "shed_exceeded"
  else "ok"

let json_serving_sharded s =
  json_obj
    [
      ("status", json_string (sharded_status s));
      ("shards", string_of_int s.shards);
      ("clients", string_of_int s.clients);
      ("storm_requests", string_of_int s.storm_requests);
      ("distinct_queries", string_of_int s.sh_distinct_queries);
      ("distinct_families", string_of_int s.distinct_families);
      ("p50_ms", json_float s.sh_p50_ms);
      ("p95_ms", json_float s.sh_p95_ms);
      ("p99_ms", json_float s.sh_p99_ms);
      ("shed_rate", json_float s.shed_rate);
      ("coalesce_rate", json_float s.coalesce_rate);
      ( "table_builds_per_shard",
        json_list string_of_int s.table_builds_per_shard );
      ("byte_identical", if s.byte_identical then "true" else "false");
    ]

let write_bench_json ~dir ~jobs ~timings ?metrics ?kernel ?parallel ?scaling
    ?grid ?pruning ?power ?serving ?serving_sharded ~sweeps ~cross () =
  match ensure_dir dir with
  | Error msg -> Error msg
  | Ok () ->
      let row (r : Table4.row) =
        json_obj
          [
            ("param", json_float r.param);
            ( "normalized",
              json_float (Ir_core.Outcome.normalized r.outcome) );
            ( "rank_wires",
              string_of_int r.outcome.Ir_core.Outcome.rank_wires );
            ( "total_wires",
              string_of_int r.outcome.Ir_core.Outcome.total_wires );
            ( "exact",
              if r.outcome.Ir_core.Outcome.exact then "true" else "false" );
            ("seconds", json_float r.seconds);
          ]
      in
      let sweep (s : Table4.sweep) =
        json_obj
          [
            ("name", json_string s.name);
            ("legend", json_string s.legend);
            ( "seconds",
              json_float
                (List.fold_left
                   (fun a (r : Table4.row) -> a +. r.seconds)
                   0.0 s.rows) );
            ("rows", json_list row s.rows);
          ]
      in
      let cell (c : Cross_node.cell) =
        json_obj
          [
            ("node", json_string (Ir_tech.Node.name c.node));
            ("gates", string_of_int c.gates);
            ( "normalized",
              json_float (Ir_core.Outcome.normalized c.outcome) );
            ( "rank_wires",
              string_of_int c.outcome.Ir_core.Outcome.rank_wires );
            ( "exact",
              if c.outcome.Ir_core.Outcome.exact then "true" else "false" );
            ("seconds", json_float c.seconds);
          ]
      in
      let contents =
        json_obj
          ([
             ("schema", json_string "ia-rank/bench-sweeps/10");
             ("jobs", string_of_int jobs);
             ( "timings",
               json_obj (List.map (fun (k, v) -> (k, json_float v)) timings)
             );
           ]
          @ (match parallel with
            | None -> []
            | Some p -> [ ("parallel", json_parallel p) ])
          @ (match scaling with
            | None -> []
            | Some sc -> [ ("scaling", json_scaling sc) ])
          @ (match kernel with
            | None -> []
            | Some ks ->
                [
                  ( "kernel",
                    json_obj
                      (List.map (fun (k, v) -> (k, json_float v)) ks) );
                ])
          @ (match grid with
            | None -> []
            | Some g -> [ ("grid", json_grid g) ])
          @ (match pruning with
            | None -> []
            | Some p -> [ ("pruning", json_pruning p) ])
          @ (match power with
            | None -> []
            | Some p -> [ ("power", json_power p) ])
          @ (match serving with
            | None -> []
            | Some s -> [ ("serving", json_serving s) ])
          @ (match serving_sharded with
            | None -> []
            | Some s -> [ ("serving_sharded", json_serving_sharded s) ])
          @ (match metrics with
            | None -> []
            | Some snap -> [ ("metrics", json_metrics snap) ])
          @ [
              ("table4", json_list sweep sweeps);
              ("cross_node", json_list cell cross);
            ])
        ^ "\n"
      in
      write_file (bench_json_path ~dir) contents

let write_manifest ~dir ~entries =
  match ensure_dir dir with
  | Error msg -> Error msg
  | Ok () ->
      let buf = Buffer.create 512 in
      List.iter
        (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s: %s\n" k v))
        entries;
      write_file (Filename.concat dir "MANIFEST.txt") (Buffer.contents buf)
