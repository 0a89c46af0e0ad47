(* Grid-batched DP engine: one wavefront pass over a whole parameter grid.

   A sweep point of the paper's Table 4 perturbs exactly one of four
   knobs of a fixed technology/WLD family — dielectric constant K,
   Miller factor M, clock C, repeater fraction R.  Points sharing
   (materials, clock) share their {e entire} phase-A DP (a
   truncation-free build at the widest budget answers every narrower
   one; [Rank_dp.rebudget]'s displacement argument), so the grid
   groups points into (materials, clock) planes, builds every plane's
   tables in one level-synchronous wavefront pass
   (all planes advance boundary-pair level j together; the [Ir_exec]
   work-stealing pool parallelizes {e across planes inside each level},
   with a barrier per level), and then answers every point from its
   plane's resident tables with boundary hints threaded across the
   whole grid.

   Two sharing layers, each proved elsewhere and reused here:
   - plane sharing: points differing only in R reuse one build
     (displacement argument at [Rank_dp.rebudget]);
   - code sharing: the wavefront drives [Rank_dp.builder_step] — the
     identical expansion code [build_tables] runs — and phase B is
     [Rank_dp.search_tables] over rebudgeted tables.

   This is the only DP driver.  A single query is a one-cell grid
   ([compute]) and a heterogeneous batch is a grid whose every cell is
   its own plane ([eval_batch]).  The Definition-3 no-fit screen lives
   in [Rank_dp.builder], so each of these answers a no-fit cell without
   expanding a level.

   A grid is a set of resident planes and nothing else.  [evaluate]
   builds one, answers its points and returns the answers; the serve
   tier's warm pool keeps one per query family, grows it a plane at a
   time ([build_plane], [adopt]) and answers neighboring queries from it
   ([query]).  Whether a plane answers a point is decided in one place,
   [answer]. *)

module P = Ir_assign.Problem

(* Deterministic quantities (structural counts, never timing- or
   scheduling-dependent): the bench asserts jobs=1 = jobs=N on these. *)
let stat_cells = Ir_obs.counter "grid/cells_evaluated"
let stat_shared = Ir_obs.counter "grid/cells_shared"
let stat_levels = Ir_obs.counter "grid/wavefront_levels"
let span_wavefront = Ir_obs.span "grid/wavefront"
let span_answer = Ir_obs.span "grid/answer"

type point = {
  materials : Ir_ia.Materials.t option;
  clock : float option;
  fraction : float option;
}

let point ?materials ?clock ?fraction () = { materials; clock; fraction }

(* A (materials, clock) plane: one phase-A build shared by every grid
   point of that plane, at the largest repeater budget any of them
   needs.  Planes are immutable once built; a grid only gains planes. *)
type plane = {
  pl_materials : Ir_ia.Materials.t option;  (* canonical: None = base *)
  pl_clock : float option;
  pl_problem : P.t;  (* at the base fraction; rebound per query *)
  pl_budget : float;  (* [P.budget] of the build *)
  pl_tables : Rank_dp.tables;
}

type t = {
  g_base : P.t;
  g_base_fraction : float;
  g_max_pareto : int option;
  g_widen_on_overflow : bool option;
  g_jobs : int option;
  mutable g_planes : plane list;
  mutable g_hint : int option;  (* last assignable boundary served *)
}

let base_clock p = (P.arch p).Ir_ia.Arch.design.Ir_tech.Design.clock

let base_fraction p =
  (P.arch p).Ir_ia.Arch.design.Ir_tech.Design.repeater_fraction

(* Collapse overrides equal to the base value to [None] so that e.g. the
   K sweep's 3.9 point, the M sweep's 2.0 point and the C sweep's base
   clock land in the {e same} plane as the R column — that coincidence is
   where most of [cells_shared] comes from on the Table-4 grid. *)
let canonical base pt =
  let materials =
    match pt.materials with
    | Some m when Ir_ia.Materials.equal m (P.arch base).Ir_ia.Arch.materials
      ->
        None
    | o -> o
  in
  let clock =
    match pt.clock with Some c when c = base_clock base -> None | o -> o
  in
  let fraction =
    match pt.fraction with
    | Some f when f = base_fraction base -> None
    | o -> o
  in
  { materials; clock; fraction }

(* A plane's identity is its canonical (materials, clock) override pair. *)
let key_equal (m1, c1) (m2, c2) =
  (match (m1, m2) with
  | None, None -> true
  | Some a, Some b -> Ir_ia.Materials.equal a b
  | _ -> false)
  && c1 = c2

let plane_key_equal pl pt =
  key_equal (pl.pl_materials, pl.pl_clock) (pt.materials, pt.clock)

(* Derive a plane's problem from the base via the rescale-reuse
   constructors: [with_materials] / [with_clock] rebuild exactly the
   tables the knob moves and reuse the rest bit-for-bit, so the derived
   problem equals a from-scratch construction at those parameters. *)
let plane_problem base pt =
  let p =
    match pt.materials with
    | None -> base
    | Some m -> P.with_materials base m
  in
  match pt.clock with None -> p | Some c -> P.with_clock p c

let point_fraction g pt =
  match pt.fraction with None -> g.g_base_fraction | Some f -> f

(* ---- wavefront phase A ------------------------------------------------- *)

(* Build many planes' tables in one level-synchronous pass: every
   still-active builder expands boundary-pair level j before any builder
   touches level j+1.  Inside a level the builders are independent (each
   steps only its own front), so the work-stealing pool fans them out;
   the barrier between levels is [parallel_map]'s join.  Builders
   deliberately take no scratch — a builder migrates between pool domains
   from level to level, and a scratch arena belongs to one domain.
   Finishing (counter flush) and the widening-ladder continuation run
   sequentially afterwards, so every [Ir_obs] tally is deterministic. *)
let wavefront ?jobs ?max_pareto ?widen_on_overflow problems =
  Ir_obs.time span_wavefront @@ fun () ->
  let builders = Array.map (Rank_dp.builder ?max_pareto) problems in
  let active = ref (Array.to_list builders) in
  while !active <> [] do
    let batch = Array.of_list !active in
    let more = Ir_exec.parallel_map ?jobs Rank_dp.builder_step batch in
    Ir_obs.incr stat_levels;
    let still = ref [] in
    for i = Array.length batch - 1 downto 0 do
      if more.(i) then still := batch.(i) :: !still
    done;
    active := !still
  done;
  Array.map
    (fun b ->
      Rank_dp.widen_tables ?widen_on_overflow (Rank_dp.builder_finish b))
    builders

(* ---- answering a point from a plane ------------------------------------ *)

(* Every answer's boundary warm-starts the grid's next search. *)
let served g ((o, _) as r) =
  if o.Outcome.assignable then g.g_hint <- Some o.Outcome.boundary_bunch;
  r

(* The one rule by which a resident plane answers a point at fraction
   [f] (capped further by [power_budget] at [activity], both defaulting
   to the plane's own):
   - a truncation-free plane answers any budget up to its build's, by
     one phase-B search over its rebudgeted tables from the grid-wide
     hint (the displacement argument at [Rank_dp.rebudget]);
   - a truncated plane answers its build budget only, by a search of its
     own tables: the budget is all of the query phase A reads, so this is
     the search a cold compute of the point runs.  Exactness of a
     narrower budget cannot rest on a front that dropped states;
   - anything else is [None], and the caller answers the point cold. *)
let answer ?activity ?power_budget g pl f =
  let q = P.with_repeater_fraction pl.pl_problem f in
  let q = match activity with None -> q | Some a -> P.with_activity q a in
  let q =
    match power_budget with None -> q | Some b -> P.with_power_budget q b
  in
  let budget = P.budget q in
  let r =
    if Rank_dp.table_truncations pl.pl_tables = 0 then
      if budget <= pl.pl_budget then
        Some
          (Rank_dp.search_tables ?hint:g.g_hint
             (Rank_dp.rebudget ~fraction:f ?activity ?power_budget
                pl.pl_tables))
      else None
    else if budget = pl.pl_budget then Some (Rank_dp.search_tables pl.pl_tables)
    else None
  in
  Option.map (served g) r

(* ---- resident grids ---------------------------------------------------- *)

let resident ?max_pareto ?widen_on_overflow ?jobs base =
  {
    g_base = base;
    g_base_fraction = base_fraction base;
    g_max_pareto = max_pareto;
    g_widen_on_overflow = widen_on_overflow;
    g_jobs = jobs;
    g_planes = [];
    g_hint = None;
  }

(* [pt] is canonical. *)
let find_plane g pt =
  List.find_opt (fun pl -> plane_key_equal pl pt) g.g_planes

(* Installs [pt]'s plane: [problem] is the plane at the base fraction,
   [build] the problem [tables] were built from. *)
let add_plane g pt problem build tables =
  let pl =
    {
      pl_materials = pt.materials;
      pl_clock = pt.clock;
      pl_problem = problem;
      pl_budget = P.budget build;
      pl_tables = tables;
    }
  in
  g.g_planes <- pl :: g.g_planes;
  pl

let planes g = List.length g.g_planes

let plane_tables g pt =
  Option.map (fun pl -> pl.pl_tables) (find_plane g (canonical g.g_base pt))

let build_plane g pt =
  let pt = canonical g.g_base pt in
  match find_plane g pt with
  | Some pl -> pl.pl_tables
  | None ->
      let problem = plane_problem g.g_base pt in
      let build = P.with_repeater_fraction problem g.g_base_fraction in
      let tables =
        wavefront ?jobs:g.g_jobs ?max_pareto:g.g_max_pareto
          ?widen_on_overflow:g.g_widen_on_overflow [| build |]
      in
      (add_plane g pt problem build tables.(0)).pl_tables

let adopt g pt tables =
  if Rank_dp.table_truncations tables <> 0 then
    invalid_arg "Rank_grid.adopt: truncated tables";
  let pt = canonical g.g_base pt in
  if Option.is_some (find_plane g pt) then
    invalid_arg "Rank_grid.adopt: plane already resident";
  let problem = plane_problem g.g_base pt in
  ignore
    (add_plane g pt problem
       (P.with_repeater_fraction problem g.g_base_fraction)
       tables)

let query ?activity ?power_budget g pt =
  let pt = canonical g.g_base pt in
  match find_plane g pt with
  | None -> None
  | Some pl ->
      let r = answer ?activity ?power_budget g pl (point_fraction g pt) in
      if Option.is_some r then begin
        Ir_obs.incr stat_cells;
        Ir_obs.incr stat_shared
      end;
      r

(* ---- grid evaluation --------------------------------------------------- *)

(* The points' cell indices grouped by plane, planes in order of first
   appearance, each plane's cells ascending. *)
let group_points points =
  let groups = ref [] in
  Array.iteri
    (fun idx pt ->
      match
        List.find_opt
          (fun (rep, _) ->
            key_equal (rep.materials, rep.clock) (pt.materials, pt.clock))
          !groups
      with
      | Some (_, cells) ->
          cells := idx :: !cells;
          Ir_obs.incr stat_shared
      | None -> groups := (pt, ref [ idx ]) :: !groups)
    points;
  List.rev_map (fun (pt, cells) -> (pt, List.rev !cells)) !groups

(* A cell answered with nothing shared: its own build, the widen ladder,
   an unhinted search — what [evaluate] falls back to where a truncated
   plane cannot answer. *)
let cold ?max_pareto ?widen_on_overflow problem =
  Rank_dp.search_with_tables ?widen_on_overflow
    (Rank_dp.build_tables ?max_pareto problem)

let evaluate ?max_pareto ?widen_on_overflow ?jobs base points =
  let g = resident ?max_pareto ?widen_on_overflow ?jobs base in
  let points = Array.map (canonical base) points in
  (* Each plane's cells in ascending-fraction order (the R-column
     convention: each fraction's boundary warm-starts the next). *)
  let groups =
    List.map
      (fun (pt, cells) ->
        ( pt,
          plane_problem base pt,
          List.stable_sort
            (fun (_, a) (_, b) -> compare a b)
            (List.map (fun idx -> (idx, point_fraction g points.(idx))) cells)
        ))
      (group_points points)
  in
  (* One wavefront over every plane, each at its widest fraction. *)
  let builds =
    Array.of_list
      (List.map
         (fun (_, problem, cells) ->
           P.with_repeater_fraction problem
             (List.fold_left (fun m (_, f) -> Float.max m f) neg_infinity cells))
         groups)
  in
  let tables = wavefront ?jobs ?max_pareto ?widen_on_overflow builds in
  let results = Array.make (Array.length points) None in
  (* Phase B: sequential over planes, hints threaded through the whole
     grid. *)
  Ir_obs.time span_answer (fun () ->
      List.iteri
        (fun i (pt, problem, cells) ->
          let pl = add_plane g pt problem builds.(i) tables.(i) in
          Ir_obs.add stat_cells (List.length cells);
          List.iter
            (fun (idx, f) ->
              let r =
                match answer g pl f with
                | Some r -> r
                | None ->
                    served g
                      (cold ?max_pareto ?widen_on_overflow
                         (P.with_repeater_fraction problem f))
              in
              results.(idx) <- Some r)
            cells)
        groups);
  Array.map Option.get results

(* ---- one cell --------------------------------------------------------- *)

let compute ?max_pareto ?widen_on_overflow problem =
  (evaluate ?max_pareto ?widen_on_overflow ~jobs:1 problem [| point () |]).(0)

(* ---- heterogeneous batches --------------------------------------------- *)

(* Cross_node / Optimizer grids: every cell is its own problem (different
   bunches or stacks), so no plane sharing — the win is the batched
   wavefront (pool parallelism inside levels, not across points) and the
   sequential hint chain.  Phase B is [Rank_dp.search_with_tables]. *)
let eval_batch ?max_pareto ?widen_on_overflow ?jobs ?hint ?probe_fan
    problems =
  let shared = wavefront ?jobs ?max_pareto ?widen_on_overflow problems in
  Ir_obs.add stat_cells (Array.length problems);
  let hint = ref hint in
  Array.map
    (fun tables ->
      let o, _w =
        Rank_dp.search_with_tables ?widen_on_overflow ?hint:!hint ?probe_fan
          tables
      in
      if o.Outcome.assignable then hint := Some o.Outcome.boundary_bunch;
      o)
    shared
