(* The engine workload as a user runs it: the public batch entry point at
   jobs = 1, with every answer checked against a known result.  trace.ml
   replays the same work layer by layer (engine_trace.ml). *)

open Common
module O = Ir_core.Outcome

(* One answer of a pass: cell label and outcome. *)
type answer = string * O.t

type measured = { setup_s : float; passes : answer array pass list }

(* Set-up takes milliseconds, so it is repeated and the median kept. *)
let setup_reps = 51

type cell = {
  label : string;
  node : Ir_tech.Node.t;
  gates : int;
  structure : Ir_ia.Arch.structure;
  rank : int;  (** the known answer; 0 is a Definition-3 no-fit *)
}

let cross_cells =
  let base = Ir_ia.Arch.baseline_structure in
  [|
    (* truncates at the default width 8, one widen retry, then exact *)
    {
      label = "n90_4750k";
      node = Ir_tech.Node.N90;
      gates = 4_750_000;
      structure = base;
      rank = 6_267_836;
    };
    (* does not fit on three pairs, yet the grid builds full tables *)
    {
      label = "n90_4500k_3pair";
      node = Ir_tech.Node.N90;
      gates = 4_500_000;
      structure = { base with Ir_ia.Arch.semi_global_pairs = 1 };
      rank = 0;
    };
    (* fits exactly at the default width *)
    {
      label = "n180_6000k";
      node = Ir_tech.Node.N180;
      gates = 6_000_000;
      structure = base;
      rank = 3_148_322;
    };
  |]

let cross_design c = Ir_core.Rank.baseline_design ~gates:c.gates c.node

let cross_problems () =
  Array.map
    (fun c ->
      Ir_core.Rank.problem_of_design ~structure:c.structure (cross_design c))
    cross_cells

let cross_pass problems () =
  Array.mapi
    (fun i o -> (cross_cells.(i).label, o))
    (Ir_core.Rank_grid.eval_batch ~jobs:1 ~probe_fan:1 problems)

let check_cross t (answers : answer array) =
  Array.iteri
    (fun i (label, o) ->
      let c = cross_cells.(i) in
      attempt t
        (o.O.rank_wires = c.rank && o.O.assignable = (c.rank > 0) && o.O.exact)
        (Printf.sprintf
           "cross_widen %s: rank %d assignable %b exact %b, expected exact \
            rank %d"
           label o.O.rank_wires o.O.assignable o.O.exact c.rank))
    answers

let cross t (args : args) =
  let problems = cross_problems () in
  let setup_s = median_time ~reps:setup_reps (fun () -> ignore (cross_problems ())) in
  let passes = run_passes ~seconds:args.seconds (cross_pass problems) in
  List.iteri
    (fun i p ->
      log "cross_widen pass %d: wall %.3f s, cpu %.3f s" (i + 1) p.wall p.cpu;
      check_cross t p.result)
    passes;
  (match passes with
  | first :: rest ->
      log "%s" (ledger_json "cross_widen" first.snap);
      List.iteri
        (fun i p ->
          match counter_diff ~prefixes:[ "" ] first.snap p.snap with
          | [] -> ()
          | names ->
              break t
                (Printf.sprintf
                   "cross_widen: pass %d counted differently from pass 1: %s"
                   (i + 2) (String.concat ", " names)))
        rest
  | [] -> ());
  { setup_s; passes }

(* A batch delivers all its answers when it returns, so each answer's
   latency is its pass's wall time.  A run holds too few passes for ten
   samples to lie beyond any upper percentile, so both latency metrics
   report the median pass.  Times are at the reference speed. *)
let metrics u =
  let wall = at_reference (median (List.map (fun p -> p.wall) u.passes)) in
  let answers =
    match u.passes with p :: _ -> Array.length p.result | [] -> 0
  in
  [
    m "setup_s" "s" (at_reference u.setup_s);
    m "wall_s" "s" wall;
    m "answers_per_s" "1/s" (float_of_int answers /. wall);
    m "latency_p50_ms" "ms" (1e3 *. wall);
    m "latency_p99_ms" "ms" (1e3 *. wall);
    m "peak_mem_mb" "MB" (peak_rss_mb ());
  ]
