(* One run of one workload.  Untraced (--trace 0), it prints the
   end-to-end metrics as the last stdout line.  Traced (--trace 1), the
   untraced measurement runs first and is the reference: the traced
   replay's outcomes and work counters must equal it.  It prints the
   per-layer metrics instead.  Any wrong answer or failed check makes the
   exit code non-zero. *)

open Common
module O = Ir_core.Outcome

(* Every per-layer metric and its unit, in print order.  A layer that a
   workload does not exercise reports 0. *)
let per_layer =
  let cell (c : Engine.cell) =
    List.map
      (fun (k, u) -> (Printf.sprintf "cross.%s.%s" c.Engine.label k, u))
      [
        ("build_s", "s");
        ("widen_s", "s");
        ("search_s", "s");
        ("inserts", "count");
        ("truncations", "count");
      ]
  in
  [
    ("wld.generate_s", "s");
    ("problem.make_s", "s");
    ("problem.rebind_s", "s");
    ("front.inserts", "count");
    ("front.dominated_ratio", "ratio");
    ("front.truncations", "count");
    ("front.insert_ns", "ns");
    ("rank_dp.build_s", "s");
    ("rank_dp.level_max_s", "s");
    ("rank_dp.states_expanded", "count");
    ("rank_dp.nofit_build_s", "s");
    ("rank_dp.widen_s", "s");
    ("rank_dp.widen_retries", "count");
    ("rank_dp.widen_inserts", "count");
    ("rank_dp.search_s", "s");
    ("rank_dp.witness_probes", "count");
    ("rank_dp.search_probes", "count");
    ("suffix_fit.hit_ratio", "ratio");
    ("greedy_fill.calls", "count");
    ("greedy_fill.fast_fail_ratio", "ratio");
    ("greedy_fill.wires_packed", "count");
    ("bounds.states_pruned", "count");
    ("bounds.incumbent_updates", "count");
    ("rank_grid.planes", "count");
    ("rank_grid.cells_shared", "count");
    ("rank_grid.wavefront_levels", "count");
    ("rank_grid.sched_s", "s");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.allocated_mb", "MB");
    ("gc.top_heap_mb", "MB");
    ("protocol.decode_us", "us");
    ("protocol.encode_us", "us");
    ("fingerprint.us", "us");
    ("cache.hit_ratio", "ratio");
    ("cache.hit_us", "us");
    ("cache.evictions", "count");
    ("cache.disk_hits", "count");
    ("server.queue_wait_ms", "ms");
    ("server.table_builds", "count");
    ("server.table_hits", "count");
    ("server.grid_hits", "count");
    ("server.cold_computes", "count");
    ("server.coalesced", "count");
    ("server.shed", "count");
    ("snapshot.saves", "count");
    ("tcp.transport_us", "us");
    ("serve.latency_samples", "count");
  ]
  @ List.concat_map cell (Array.to_list Engine.cross_cells)
  @ [
      ("trace.wall_s", "s");
      ("trace.untraced_wall_s", "s");
      ("trace.overhead_s", "s");
      ("trace.coverage", "ratio");
      ("calib.reference_s", "s");
      ("fail_ratio", "ratio");
    ]

(* The work counters a traced replay must reproduce exactly. *)
let work_prefixes = [ "rank_dp/"; "suffix_fit/"; "greedy_fill/"; "bounds/" ]

(* Self times must account for this share of the traced wall. *)
let min_coverage = 0.9

let counter_metrics snap =
  let c = count snap in
  let f name = float_of_int (c name) in
  [
    ("front.inserts", f "rank_dp/pareto_inserts");
    ( "front.dominated_ratio",
      ratio (c "rank_dp/pareto_dominated") (c "rank_dp/pareto_inserts") );
    ("front.truncations", f "rank_dp/pareto_truncations");
    ("rank_dp.states_expanded", f "rank_dp/states_expanded");
    ("rank_dp.widen_retries", f "rank_dp/widen_retries");
    ("rank_dp.witness_probes", f "rank_dp/witness_probes");
    ("rank_dp.search_probes", f "rank_dp/search_probes");
    ( "suffix_fit.hit_ratio",
      ratio (c "suffix_fit/hits") (c "suffix_fit/hits" + c "suffix_fit/misses")
    );
    ("greedy_fill.calls", f "greedy_fill/calls");
    ( "greedy_fill.fast_fail_ratio",
      ratio (c "greedy_fill/fast_fails") (c "greedy_fill/calls") );
    ("greedy_fill.wires_packed", f "greedy_fill/wires_packed");
    ("bounds.states_pruned", f "bounds/states_pruned");
    ("bounds.incumbent_updates", f "bounds/incumbent_updates");
    ("rank_grid.cells_shared", f "grid/cells_shared");
    ("rank_grid.wavefront_levels", f "grid/wavefront_levels");
  ]

let gc_metrics gcs =
  let med f = median (List.map f gcs) in
  [
    ("gc.minor_collections", med (fun g -> float_of_int g.minor_collections));
    ("gc.major_collections", med (fun g -> float_of_int g.major_collections));
    ("gc.allocated_mb", med (fun g -> g.allocated_mb));
    ("gc.top_heap_mb", top_heap_mb ());
  ]

(* The Front insert kernel alone: a seeded stream of random (area, count)
   candidates into 256 fronts of the default width. *)
let front_insert_ns seed =
  let rng = Random.State.make [| seed; 0x46 |] in
  let n = 1 lsl 20 and cells = 256 in
  let cell = Array.init n (fun _ -> Random.State.int rng cells) in
  let area = Array.init n (fun _ -> Random.State.float rng 1.0) in
  let cnt = Array.init n (fun _ -> Random.State.int rng 1000) in
  median
    (List.init 5 (fun _ ->
         let front = Ir_core.Front.create ~cells ~width:8 in
         let (), dt =
           time (fun () ->
               for i = 0 to n - 1 do
                 Ir_core.Front.insert front cell.(i) ~area:area.(i)
                   ~count:cnt.(i) ~split:0 ~parent:(-1)
               done)
         in
         dt *. 1e9 /. float_of_int n))

(* ---- cross_widen ------------------------------------------------------ *)

let cross t (args : args) =
  let workload = "cross_widen" in
  let u = Engine.cross t args in
  let first = List.hd u.Engine.passes in
  (* The eval_batch wall, and the untraced wall comparable with the
     replica's, which also builds the problems. *)
  let evaluate_s = median (List.map (fun p -> p.wall) u.Engine.passes) in
  let untraced_s = u.Engine.setup_s +. evaluate_s in
  (* What eval_batch spends outside its phase-A wavefront (widen rungs
     included) and its phase-B searches, from the existing spans of the
     same untraced pass. *)
  let sched_s =
    median
      (List.map
         (fun p ->
           p.wall -. span_s p.snap "grid/wavefront"
           -. span_s p.snap "rank_dp/search")
         u.Engine.passes)
  in
  Gc.compact ();
  Ir_obs.reset ();
  let tr = Engine_trace.create () in
  let answers, wall = time (fun () -> Engine_trace.cross tr) in
  let snap = ledger () in
  if
    not
      (Array.length answers = Array.length first.result
      && Array.for_all2
           (fun (_, a) (_, b) -> O.equal a b)
           answers first.result)
  then break t (workload ^ ": traced outcomes differ from the untraced pass");
  (match counter_diff ~prefixes:work_prefixes first.snap snap with
  | [] -> ()
  | names ->
      break t
        (Printf.sprintf "%s: traced work counters differ: %s" workload
           (String.concat ", " names)));
  let levels = count first.snap "grid/wavefront_levels" in
  if tr.Engine_trace.levels <> levels then
    break t
      (Printf.sprintf "%s: the traced wavefront took %d levels, Rank_grid %d"
         workload tr.Engine_trace.levels levels);
  let coverage = Engine_trace.covered tr /. wall in
  if coverage < min_coverage then
    break t
      (Printf.sprintf "%s: self times cover %.1f%% of the traced wall"
         workload (100.0 *. coverage));
  let self = Engine_trace.self tr in
  let build = self "rank_dp.build"
  and widen = self "rank_dp.widen"
  and search = self "rank_dp.search" in
  let cells = Array.to_list tr.Engine_trace.cells in
  let total f = List.fold_left (fun acc c -> acc +. f c) 0.0 cells in
  let per_cell =
    List.concat
      (List.mapi
         (fun i (c : Engine_trace.cell_cost) ->
           let label = Engine.cross_cells.(i).Engine.label in
           let name k = Printf.sprintf "cross.%s.%s" label k in
           log
             "cross_widen %s: build %.3f s, widen %.3f s, search %.3f s, %d \
              inserts, %d truncations"
             label c.Engine_trace.build_s c.Engine_trace.widen_s
             c.Engine_trace.search_s c.Engine_trace.inserts
             c.Engine_trace.truncations;
           [
             (name "build_s", c.Engine_trace.build_s);
             (name "widen_s", c.Engine_trace.widen_s);
             (name "search_s", c.Engine_trace.search_s);
             (name "inserts", float_of_int c.Engine_trace.inserts);
             (name "truncations", float_of_int c.Engine_trace.truncations);
           ])
         cells)
  in
  log "%s traced: wall %.3f s against %.3f s untraced, coverage %.4f" workload
    wall untraced_s coverage;
  counter_metrics first.snap
  @ gc_metrics (List.map (fun p -> p.gc) u.Engine.passes)
  @ per_cell
  @ [
      ("wld.generate_s", self "wld.generate");
      ("problem.make_s", self "problem.make");
      ("front.insert_ns", front_insert_ns args.seed);
      ("rank_dp.build_s", build);
      ("rank_dp.level_max_s", tr.Engine_trace.level_max_s);
      ( "rank_dp.nofit_build_s",
        total (fun c ->
            if c.Engine_trace.nofit then
              c.Engine_trace.build_s +. c.Engine_trace.widen_s
            else 0.0) );
      ("rank_dp.widen_s", widen);
      ( "rank_dp.widen_inserts",
        total (fun c -> float_of_int c.Engine_trace.widen_inserts) );
      ("rank_dp.search_s", search);
      ( "rank_grid.planes",
        float_of_int
          (count first.snap "grid/cells_evaluated"
          - count first.snap "grid/cells_shared") );
      ("rank_grid.sched_s", sched_s);
      ("trace.wall_s", wall);
      ("trace.untraced_wall_s", untraced_s);
      ("trace.overhead_s", wall -. untraced_s);
      ("trace.coverage", coverage);
      ("calib.reference_s", reference_s ());
    ]

(* ---- serve_mix -------------------------------------------------------- *)

let serve t (args : args) =
  let u = Serve_load.measure t args in
  let corpus = u.Serve_load.corpus and refs = u.Serve_load.refs in
  let rounds = u.Serve_load.rounds in
  let replay ~timed =
    Serve_trace.replay t ~timed
      ~dir:(Filename.concat args.work_dir "inproc")
      corpus refs
  in
  let r = replay ~timed:true in
  let plain = replay ~timed:false in
  (match
     counter_diff ~prefixes:[ "" ] r.Serve_trace.snap plain.Serve_trace.snap
   with
  | [] -> ()
  | names ->
      break t
        ("serve_mix: the timed and untimed in-process replays counted \
          differently: " ^ String.concat ", " names));
  let coverage = r.Serve_trace.covered_s /. r.Serve_trace.wall_s in
  if coverage < min_coverage then
    break t
      (Printf.sprintf "serve_mix: self times cover %.1f%% of the replay"
         (100.0 *. coverage));
  let memory_hit_latency_us =
    List.concat_map
      (fun (rd : Serve_load.round) ->
        List.concat
          (List.mapi
             (fun i line ->
               match Serve_load.response_source line with
               | Some "memory" -> [ rd.Serve_load.latency_ms.(i) *. 1e3 ]
               | _ -> [])
             (Array.to_list rd.Serve_load.responses)))
      rounds
  in
  (* The server builds a WLD and a Problem for each new family and each
     cold compute, and derives each warm plane from its family's problem
     with Problem.with_materials and with_clock.  Time one of each per
     corpus family, and one rebind per warm plane, from outside. *)
  let module Q = Ir_serve.Protocol in
  let queries = Array.to_list corpus.Serve_load.queries in
  let families =
    List.sort_uniq compare
      (List.map (fun (q : Q.query) -> (q.Q.node, q.Q.gates)) queries)
  in
  let planes (node, gates) =
    List.sort_uniq compare
      (List.filter_map
         (fun (q : Q.query) ->
           match (q.Q.k, q.Q.miller, q.Q.clock) with
           | Some k, Some miller, Some clock
             when q.Q.node = node && q.Q.gates = gates && (not q.Q.greedy)
                  && q.Q.power_budget = None ->
               Some (k, miller, clock)
           | _ -> None)
         queries)
  in
  let wld_s, problem_s, rebind_s =
    List.fold_left
      (fun (w, p, r) ((node, gates) as family) ->
        match Ir_serve.Fingerprint.v ~node ~gates () with
        | Error e -> failwith e
        | Ok fp ->
            let _, tw =
              time (fun () ->
                  Ir_wld.Davis.generate
                    (Ir_wld.Davis.params ~gates
                       ~rent_p:fp.Ir_serve.Fingerprint.rent_p
                       ~fan_out:fp.Ir_serve.Fingerprint.fan_out ()))
            in
            let base, tp = time (fun () -> Ir_serve.Fingerprint.problem fp) in
            let tr =
              List.fold_left
                (fun acc (k, miller, clock) ->
                  let materials = Ir_ia.Materials.v ~k ~miller () in
                  let _, dt =
                    time (fun () ->
                        Ir_assign.Problem.with_clock
                          (Ir_assign.Problem.with_materials base materials)
                          clock)
                  in
                  acc +. dt)
                0.0 (planes family)
            in
            (w +. tw, p +. (tp -. tw), r +. tr))
      (0.0, 0.0, 0.0) families
  in
  let s = r.Serve_trace.snap in
  let c name = float_of_int (count s name) in
  let requests = Array.length corpus.Serve_load.lines in
  let round_stat name =
    median
      (List.map
         (fun (rd : Serve_load.round) ->
           float_of_int
             (Option.value ~default:0 (List.assoc_opt name rd.Serve_load.stats)))
         rounds)
  in
  log
    "serve_mix in-process replay: %.3f s, %d table builds, %d grid hits, %d \
     cold computes, %d memory hits, %d disk hits, coverage %.4f"
    r.Serve_trace.wall_s (count s "serve/table_builds")
    (count s "serve/grid_hits") (count s "serve/cold_computes")
    (count s "serve_cache/mem_hits")
    (count s "serve_cache/disk_hits")
    coverage;
  counter_metrics s
  @ gc_metrics [ r.Serve_trace.gc ]
  @ [
      ("wld.generate_s", wld_s);
      ("problem.make_s", problem_s);
      ("problem.rebind_s", rebind_s);
      ("front.insert_ns", front_insert_ns args.seed);
      ( "rank_dp.build_s",
        span_s s "grid/wavefront" +. span_s s "rank_dp/build_tables" );
      ("rank_dp.search_s", span_s s "rank_dp/search");
      ("rank_grid.planes", c "serve/table_builds");
      ("protocol.decode_us", median r.Serve_trace.decode_us);
      ("protocol.encode_us", median r.Serve_trace.encode_us);
      ("fingerprint.us", median r.Serve_trace.fingerprint_us);
      ( "cache.hit_ratio",
        ratio
          (count s "serve_cache/mem_hits" + count s "serve_cache/disk_hits")
          requests );
      ("cache.hit_us", median r.Serve_trace.hit_us);
      ("cache.evictions", c "serve_cache/evictions");
      ("cache.disk_hits", c "serve_cache/disk_hits");
      ("server.queue_wait_ms", median r.Serve_trace.queue_wait_ms);
      ("server.table_builds", c "serve/table_builds");
      ("server.table_hits", c "serve/table_hits");
      ("server.grid_hits", c "serve/grid_hits");
      ("server.cold_computes", c "serve/cold_computes");
      ("server.coalesced", round_stat "serve/coalesced");
      ("server.shed", round_stat "serve/shed");
      ("snapshot.saves", c "serve_snapshot/saves");
      ( "tcp.transport_us",
        median memory_hit_latency_us -. median r.Serve_trace.memory_hit_us );
      ("serve.latency_samples", float_of_int (requests * List.length rounds));
      ("trace.wall_s", r.Serve_trace.wall_s);
      ("trace.untraced_wall_s", plain.Serve_trace.wall_s);
      ("trace.overhead_s", r.Serve_trace.wall_s -. plain.Serve_trace.wall_s);
      ("trace.coverage", coverage);
      ("calib.reference_s", reference_s ());
    ]

(* ---- entry point ------------------------------------------------------ *)

let traced t args =
  let values =
    match args.workload with
    | "cross_widen" -> cross t args
    | _ -> serve t args
  in
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n per_layer) then
        break t ("undeclared per-layer metric " ^ n))
    values;
  let values = ("fail_ratio", ratio t.failed t.attempted) :: values in
  List.map
    (fun (n, u) -> m n u (Option.value ~default:0.0 (List.assoc_opt n values)))
    per_layer

let untraced t args =
  match args.workload with
  | "cross_widen" -> Engine.metrics (Engine.cross t args)
  | _ -> Serve_load.metrics (Serve_load.measure t args)

let () =
  match Sys.argv with
  | [| _; "--reference"; n |] -> print_reference_samples (int_of_string n)
  | _ ->
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = parse_args () in
  if not (List.mem args.workload [ "cross_widen"; "serve_mix" ]) then begin
    log "perfbench: unknown workload %S" args.workload;
    exit 2
  end;
  let t = tally () in
  let metrics = if args.trace then traced t args else untraced t args in
  log "reference kernel: median %.4f s over %d samples" (reference_s ())
    (List.length !reference_samples);
  emit t metrics
