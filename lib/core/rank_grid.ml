(* Grid-batched DP engine: one wavefront pass over a whole parameter grid.

   A sweep point of the paper's Table 4 perturbs exactly one of four
   knobs of a fixed technology/WLD family — dielectric constant K,
   Miller factor M, clock C, repeater fraction R.  Points sharing
   (materials, clock) share their {e entire} phase-A DP (the repeater
   budget enters no table; [Rank_dp.rebudget]'s displacement
   argument), so the grid groups points into (materials, clock) planes,
   builds every plane's tables in one level-synchronous wavefront pass
   (all planes advance boundary-pair level j together; the [Ir_exec]
   work-stealing pool parallelizes {e across planes inside each level},
   with a barrier per level), and then answers every point from its
   plane's resident tables with one family-wide suffix-fit memo and
   boundary hints threaded across the whole grid.

   Three sharing layers, each proved elsewhere and reused here:
   - plane sharing: points differing only in R reuse one build
     (displacement argument at [Rank_dp.rebudget]);
   - oracle sharing: [Greedy_fill.fits] verdicts depend only on
     capacity-side data (capacity, pitches, via blockage, bunches, wire
     and routing-area prefixes) which the whole K x M x C x R family
     shares, so one [Suffix_fit] memo answers probes for every plane;
   - code sharing: the wavefront drives [Rank_dp.builder_step] — the
     identical expansion code [build_tables] runs — and phase B is
     [Rank_dp.search_tables] over rebudgeted tables.

   This is the only DP driver.  A single query is a one-cell grid
   ([compute]) and a heterogeneous batch is a grid whose every cell is
   its own plane ([eval_batch]).  The Definition-3 no-fit screen lives
   in [Rank_dp.builder], so each of these answers a no-fit cell without
   expanding a level.

   The planes stay resident after evaluation: [perturb] answers a
   one-parameter delta by recomputing only the slice it invalidates — a
   new R point on a truncation-free plane is one phase-B search, a new
   K/M/C value is one new plane's build — never the whole grid.  The
   serve tier's warm pool leans on this to answer neighboring-query
   misses from a resident grid. *)

module P = Ir_assign.Problem

(* Deterministic quantities (structural counts, never timing- or
   scheduling-dependent): the bench asserts jobs=1 = jobs=N on these. *)
let stat_cells = Ir_obs.counter "grid/cells_evaluated"
let stat_shared = Ir_obs.counter "grid/cells_shared"
let stat_levels = Ir_obs.counter "grid/wavefront_levels"
let stat_perturb = Ir_obs.counter "grid/perturb_recomputed"
let span_wavefront = Ir_obs.span "grid/wavefront"
let span_answer = Ir_obs.span "grid/answer"

type point = {
  materials : Ir_ia.Materials.t option;
  clock : float option;
  fraction : float option;
}

let point ?materials ?clock ?fraction () = { materials; clock; fraction }

(* A (materials, clock) plane: one phase-A build shared by every grid
   point of that plane, held at the largest repeater fraction any of its
   points ever asked for. *)
type plane = {
  pl_materials : Ir_ia.Materials.t option;  (* canonical: None = base *)
  pl_clock : float option;
  pl_problem : P.t;  (* at the base fraction; rebound per query *)
  mutable pl_f_max : float;
  mutable pl_tables : Rank_dp.tables;
  mutable pl_points : int list;  (* grid cell indices, oldest first *)
}

type t = {
  g_base : P.t;
  g_base_fraction : float;
  g_max_pareto : int option;
  g_widen_on_overflow : bool option;
  g_widen_cap : int option;
  g_jobs : int option;
  mutable g_points : point array;  (* canonicalized; index = grid cell *)
  mutable g_outcomes : Outcome.t array;  (* index = grid cell *)
  mutable g_witnesses : Rank_dp.witness option array;  (* index = grid cell *)
  mutable g_planes : plane list;  (* oldest first *)
  mutable g_memo : Ir_assign.Suffix_fit.t option;  (* family-wide, lazy *)
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
let wavefront ?jobs ?max_pareto ?widen_on_overflow ?widen_cap problems =
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
      Rank_dp.widen_tables ?widen_on_overflow ?widen_cap
        (Rank_dp.builder_finish b))
    builders

(* ---- grid evaluation --------------------------------------------------- *)

(* One suffix-fit memo for the whole family — see the oracle-sharing
   argument at the top of the file.  Bound to the base problem (any
   member's capacity-side data is the family's); created lazily and kept
   for the grid's resident lifetime, so serve-tier queries reuse probe
   verdicts across requests. *)
let family_memo g =
  match g.g_memo with
  | Some m -> m
  | None ->
      let m = Ir_assign.Suffix_fit.create g.g_base in
      g.g_memo <- Some m;
      m

(* A cell answered with nothing shared: its own build, the widen ladder,
   an unhinted search.  The fallback for fractions a truncated plane
   cannot answer. *)
let cold ?max_pareto ?widen_on_overflow ?widen_cap problem =
  Rank_dp.search_with_tables ?widen_on_overflow ?widen_cap
    (Rank_dp.build_tables ?max_pareto problem)

(* Phase B of one plane: every fraction from the plane's shared tables,
   rebudgeted, when they are truncation-free (the displacement argument
   at [Rank_dp.rebudget]); one family-wide memo answers repeated probe
   contexts and the grid-wide boundary hint warm-starts each search.
   A truncated plane answers its own build fraction directly and every
   other fraction cold — exactness of the narrower fractions cannot
   rest on a front that dropped states.  Sequential and deterministic. *)
let answer_fractions g pl fractions =
  let shared = pl.pl_tables in
  let exact = Rank_dp.table_truncations shared = 0 in
  List.map
    (fun f ->
      let ((o, _) as r) =
        if exact then
          Rank_dp.search_tables ~memo:(family_memo g) ?hint:g.g_hint
            (Rank_dp.rebudget ~fraction:f shared)
        else if f = pl.pl_f_max then
          (* The plane's own build is this fraction's cold answer. *)
          Rank_dp.search_tables shared
        else
          cold ?max_pareto:g.g_max_pareto
            ?widen_on_overflow:g.g_widen_on_overflow ?widen_cap:g.g_widen_cap
            (P.with_repeater_fraction pl.pl_problem f)
      in
      if o.Outcome.assignable then g.g_hint <- Some o.Outcome.boundary_bunch;
      r)
    fractions

(* Answer one plane's points, in ascending-fraction order (the R-column
   convention — each fraction's boundary warm-starts the next), and
   scatter the results back to their grid cells. *)
let answer_plane g pl =
  let pts =
    List.map (fun idx -> (idx, point_fraction g g.g_points.(idx))) pl.pl_points
  in
  let pts = List.stable_sort (fun (_, a) (_, b) -> compare a b) pts in
  let answers = answer_fractions g pl (List.map snd pts) in
  Ir_obs.add stat_cells (List.length pts);
  List.iter2
    (fun (idx, _) (o, w) ->
      g.g_outcomes.(idx) <- o;
      g.g_witnesses.(idx) <- w)
    pts answers

(* Mutable pre-build grouping record: planes get their tables only after
   the wavefront. *)
type group = {
  gr_pt : point;
  gr_problem : P.t;
  mutable gr_f_max : float;
  mutable gr_points : int list;  (* reversed during grouping *)
}

let group_points g points =
  let groups = ref [] in
  Array.iteri
    (fun idx pt ->
      let f = point_fraction g pt in
      match
        List.find_opt
          (fun gr ->
            key_equal
              (gr.gr_pt.materials, gr.gr_pt.clock)
              (pt.materials, pt.clock))
          !groups
      with
      | Some gr ->
          gr.gr_f_max <- Float.max gr.gr_f_max f;
          gr.gr_points <- idx :: gr.gr_points;
          Ir_obs.incr stat_shared
      | None ->
          groups :=
            {
              gr_pt = pt;
              gr_problem = plane_problem g.g_base pt;
              gr_f_max = f;
              gr_points = [ idx ];
            }
            :: !groups)
    points;
  List.rev !groups

let evaluate ?max_pareto ?widen_on_overflow ?widen_cap ?jobs base points =
  let points = Array.map (canonical base) points in
  let n = Array.length points in
  let g =
    {
      g_base = base;
      g_base_fraction = base_fraction base;
      g_max_pareto = max_pareto;
      g_widen_on_overflow = widen_on_overflow;
      g_widen_cap = widen_cap;
      g_jobs = jobs;
      g_points = points;
      g_outcomes =
        Array.make (max 1 n)
          (Outcome.unassignable ~total_wires:(P.total_wires base) ());
      g_witnesses = Array.make (max 1 n) None;
      g_planes = [];
      g_memo = None;
      g_hint = None;
    }
  in
  let groups = group_points g points in
  (* One wavefront over every plane, at each plane's own f_max. *)
  let build_problems =
    Array.of_list
      (List.map
         (fun gr -> P.with_repeater_fraction gr.gr_problem gr.gr_f_max)
         groups)
  in
  let shared =
    wavefront ?jobs ?max_pareto ?widen_on_overflow ?widen_cap build_problems
  in
  g.g_planes <-
    List.mapi
      (fun i gr ->
        {
          pl_materials = gr.gr_pt.materials;
          pl_clock = gr.gr_pt.clock;
          pl_problem = gr.gr_problem;
          pl_f_max = gr.gr_f_max;
          pl_tables = shared.(i);
          pl_points = List.rev gr.gr_points;
        })
      groups;
  (* Phase B: sequential over planes, one family memo, hints threaded
     through the whole grid. *)
  Ir_obs.time span_answer (fun () -> List.iter (answer_plane g) g.g_planes);
  g

let results g = Array.sub g.g_outcomes 0 (Array.length g.g_points)
let outcome g idx = g.g_outcomes.(idx)
let cells g = Array.length g.g_points
let planes g = List.length g.g_planes

(* ---- incremental re-evaluation ----------------------------------------- *)

let perturb g pt =
  let pt = canonical g.g_base pt in
  let idx = Array.length g.g_points in
  let f = point_fraction g pt in
  g.g_points <- Array.append g.g_points [| pt |];
  if Array.length g.g_outcomes < idx + 1 then begin
    g.g_outcomes <-
      Array.append g.g_outcomes
        [| Outcome.unassignable ~total_wires:(P.total_wires g.g_base) () |];
    g.g_witnesses <- Array.append g.g_witnesses [| None |]
  end;
  let changed =
    match List.find_opt (fun pl -> plane_key_equal pl pt) g.g_planes with
    | Some pl when f <= pl.pl_f_max ->
        (* Resident plane already covers this budget: nothing of the
           plane is rebuilt.  A truncation-free plane answers with one
           phase-B search; a truncated one answers this cell alone, as
           [answer_fractions] answers any of its fractions. *)
        Ir_obs.incr stat_shared;
        let o, w = List.hd (answer_fractions g pl [ f ]) in
        Ir_obs.incr stat_cells;
        g.g_outcomes.(idx) <- o;
        g.g_witnesses.(idx) <- w;
        pl.pl_points <- pl.pl_points @ [ idx ];
        [| idx |]
    | Some pl ->
        (* Budget grew past the resident build: rebuild this plane's
           slice at the new fraction and re-answer {e its} points only —
           every other plane's cells are untouched. *)
        pl.pl_f_max <- f;
        pl.pl_points <- pl.pl_points @ [ idx ];
        Ir_obs.incr stat_shared;
        let shared =
          wavefront ?jobs:g.g_jobs ?max_pareto:g.g_max_pareto
            ?widen_on_overflow:g.g_widen_on_overflow
            ?widen_cap:g.g_widen_cap
            [| P.with_repeater_fraction pl.pl_problem f |]
        in
        pl.pl_tables <- shared.(0);
        answer_plane g pl;
        Array.of_list pl.pl_points
    | None ->
        (* New (materials, clock) value: one new plane, built alone. *)
        let problem = plane_problem g.g_base pt in
        let shared =
          wavefront ?jobs:g.g_jobs ?max_pareto:g.g_max_pareto
            ?widen_on_overflow:g.g_widen_on_overflow
            ?widen_cap:g.g_widen_cap
            [| P.with_repeater_fraction problem f |]
        in
        let pl =
          {
            pl_materials = pt.materials;
            pl_clock = pt.clock;
            pl_problem = problem;
            pl_f_max = f;
            pl_tables = shared.(0);
            pl_points = [ idx ];
          }
        in
        g.g_planes <- g.g_planes @ [ pl ];
        answer_plane g pl;
        [| idx |]
  in
  Ir_obs.add stat_perturb (Array.length changed);
  changed

(* ---- resident grids for the serve tier --------------------------------- *)

(* The serve tier's warm pool holds one resident grid per query family
   (everything but materials, clock and repeater fraction) and feeds it
   planes one query at a time — starting empty, adopting
   snapshot-restored tables, and answering neighboring-query misses with
   [query] without growing the cell arrays. *)

let resident ?max_pareto ?widen_on_overflow ?widen_cap ?jobs base =
  {
    g_base = base;
    g_base_fraction = base_fraction base;
    g_max_pareto = max_pareto;
    g_widen_on_overflow = widen_on_overflow;
    g_widen_cap = widen_cap;
    g_jobs = jobs;
    g_points = [||];
    g_outcomes = [||];
    g_witnesses = [||];
    g_planes = [];
    g_memo = None;
    g_hint = None;
  }

let find_plane g pt =
  let pt = canonical g.g_base pt in
  List.find_opt (fun pl -> plane_key_equal pl pt) g.g_planes

let plane_tables g pt = Option.map (fun pl -> pl.pl_tables) (find_plane g pt)

let adopt g pt tables =
  if Rank_dp.table_truncations tables <> 0 then
    invalid_arg "Rank_grid.adopt: truncated tables";
  let pt = canonical g.g_base pt in
  match List.find_opt (fun pl -> plane_key_equal pl pt) g.g_planes with
  | Some pl ->
      pl.pl_tables <- tables;
      pl.pl_f_max <- g.g_base_fraction
  | None ->
      g.g_planes <-
        g.g_planes
        @ [
            {
              pl_materials = pt.materials;
              pl_clock = pt.clock;
              pl_problem = plane_problem g.g_base pt;
              pl_f_max = g.g_base_fraction;
              pl_tables = tables;
              pl_points = [];
            };
          ]

(* A power budget (at its activity factor) is one more cap on the
   query's repeater budget, so it rebinds the resident tables exactly as
   a fraction does; the covering check compares the rebound budget with
   the build's. *)
let query ?activity ?power_budget g pt =
  let pt = canonical g.g_base pt in
  let f = point_fraction g pt in
  match List.find_opt (fun pl -> plane_key_equal pl pt) g.g_planes with
  | Some pl when Rank_dp.table_truncations pl.pl_tables = 0 ->
      let q = P.with_repeater_fraction pl.pl_problem f in
      let q = match activity with None -> q | Some a -> P.with_activity q a in
      let q =
        match power_budget with
        | None -> q
        | Some b -> P.with_power_budget q b
      in
      let budget = P.budget q in
      if
        budget
        <= P.budget (P.with_repeater_fraction pl.pl_problem pl.pl_f_max)
      then begin
        let ((o, _) as r) =
          Rank_dp.search_tables ~memo:(family_memo g) ?hint:g.g_hint
            (Rank_dp.rebudget ~fraction:f ?activity ?power_budget
               pl.pl_tables)
        in
        if o.Outcome.assignable then g.g_hint <- Some o.Outcome.boundary_bunch;
        Ir_obs.incr stat_cells;
        Ir_obs.incr stat_shared;
        Some r
      end
      else None
  | Some _ | None -> None

(* ---- one cell --------------------------------------------------------- *)

let compute ?max_pareto ?widen_on_overflow ?widen_cap problem =
  let g =
    evaluate ?max_pareto ?widen_on_overflow ?widen_cap ~jobs:1 problem
      [| point () |]
  in
  (g.g_outcomes.(0), g.g_witnesses.(0))

(* ---- heterogeneous batches --------------------------------------------- *)

(* Cross_node / Optimizer grids: every cell is its own problem (different
   bunches or stacks), so no plane sharing — the win is the batched
   wavefront (pool parallelism inside levels, not across points) and the
   sequential hint chain.  Phase B is [Rank_dp.search_with_tables]. *)
let eval_batch ?max_pareto ?widen_on_overflow ?widen_cap ?jobs ?hint
    ?probe_fan problems =
  let shared =
    wavefront ?jobs ?max_pareto ?widen_on_overflow ?widen_cap problems
  in
  Ir_obs.add stat_cells (Array.length problems);
  let hint = ref hint in
  Array.map
    (fun tables ->
      let o, _w =
        Rank_dp.search_with_tables ?widen_on_overflow ?widen_cap ?hint:!hint
          ?probe_fan tables
      in
      if o.Outcome.assignable then hint := Some o.Outcome.boundary_bunch;
      o)
    shared
