type row = { param : float; outcome : Ir_core.Outcome.t; seconds : float }
[@@deriving show]

type sweep = {
  name : string;
  legend : string;
  rows : row list;
  paper : (float * float) list;
}

type config = {
  design : Ir_tech.Design.t;
  structure : Ir_ia.Arch.structure;
  bunch_size : int;
  target_model : Ir_delay.Target.t;
  algo : Ir_core.Rank.algo;
  activity : float;
  power_budget : float;
}

let default_config =
  {
    design = Ir_core.Rank.baseline_design Ir_tech.Node.N130;
    structure = Ir_ia.Arch.baseline_structure;
    bunch_size = 10000;
    target_model = Ir_delay.Target.Linear;
    algo = Ir_core.Rank.Dp;
    activity = Ir_assign.Problem.default_activity;
    power_budget = infinity;
  }

let with_design config design = { config with design }

let shared_wld config =
  let d = config.design in
  Ir_wld.Davis.generate
    (Ir_wld.Davis.params ~gates:d.Ir_tech.Design.gates
       ~rent_p:d.Ir_tech.Design.rent_p ~fan_out:d.Ir_tech.Design.fan_out ())

(* The config's baseline instance — the point every sweep column
   perturbs — built exactly as [run_defs] builds it (same WLD, same
   bunching, default materials), exposed so companion experiments (the
   power Pareto sweep) anchor on the grid's own base cell. *)
let baseline_problem ?activity config =
  let wld = shared_wld config in
  let pitch = Ir_tech.Design.effective_gate_pitch config.design in
  let bunches =
    Ir_wld.Coarsen.bunch ~bunch_size:config.bunch_size ~pitch wld
  in
  let arch =
    Ir_ia.Arch.make ~structure:config.structure
      ~materials:Ir_ia.Materials.default ~design:config.design ()
  in
  let activity = Option.value activity ~default:config.activity in
  Ir_assign.Problem.of_bunches ~activity ~target_model:config.target_model
    ~arch ~bunches ()

(* One sweep: its grid points, each a {!Ir_core.Rank_grid.point}
   override of the config's baseline instance (materials for K and M,
   clock for C, repeater fraction for R). *)
type def = {
  d_name : string;
  d_legend : string;
  d_paper : (float * float) list;
  d_points : (float * Ir_core.Rank_grid.point) list;
}

let stat_points = Ir_obs.counter "sweep/points"
let span_point_search = Ir_obs.span "sweep/point_search"
let span_grid = Ir_obs.span "sweep/grid"

(* Scatter [(sweep, idx, row)] triples back into the defs' grid order. *)
let assemble defs results =
  let rows =
    Array.of_list
      (List.map (fun d -> Array.make (List.length d.d_points) None) defs)
  in
  Array.iter (fun (s, i, row) -> rows.(s).(i) <- Some row) results;
  List.mapi
    (fun s d ->
      {
        name = d.d_name;
        legend = d.d_legend;
        paper = d.d_paper;
        rows =
          Array.to_list
            (Array.map
               (function Some r -> r | None -> assert false)
               rows.(s));
      })
    defs

(* The DP path: every def's points as overrides of the shared base
   instance, evaluated as one [Rank_grid] wavefront — every (materials,
   clock) plane's tables built in a single level-synchronous pass (the
   pool parallelizes {e inside} each level, not across points), and the
   R column, the C column's base point and any base-valued K/M point
   sharing one resident plane.  A finite power budget on the config is
   an area cap on every point's budget (Problem.budget).  The wall time
   is inherently
   collective, so each row reports the run's cost amortized evenly. *)
let run_grid ?jobs base cells =
  let points = Array.map (fun (_, _, _, pt) -> pt) cells in
  Logs.debug (fun f -> f "table4: grid of %d cells" (Array.length points));
  let t0 = Ir_exec.now () in
  let answers =
    Ir_obs.time span_grid @@ fun () ->
    Ir_core.Rank_grid.evaluate ?jobs base points
  in
  let per =
    (Ir_exec.now () -. t0) /. float_of_int (max 1 (Array.length points))
  in
  Array.mapi
    (fun i (sweep, idx, param, _) ->
      Ir_obs.incr stat_points;
      (sweep, idx, { param; outcome = fst answers.(i); seconds = per }))
    cells

(* Non-DP algorithms have no shared tables: each point is its own
   instance — K and M points rebuilt on the shared bunches, C and R
   points derived from the base via the rescale constructors — computed
   independently on the pool. *)
let run_each ?jobs algo problem_of_materials base cells =
  Ir_exec.parallel_map ?jobs
    (fun (sweep, idx, param, (pt : Ir_core.Rank_grid.point)) ->
      Ir_obs.incr stat_points;
      let problem =
        match pt with
        | { materials = Some m; _ } -> problem_of_materials m
        | { clock = Some c; _ } -> Ir_assign.Problem.with_clock base c
        | { fraction = Some f; _ } ->
            Ir_assign.Problem.with_repeater_fraction base f
        | _ -> base
      in
      let t0 = Ir_exec.now () in
      let outcome =
        Ir_obs.time span_point_search @@ fun () ->
        Ir_core.Rank.compute ~algo problem
      in
      (sweep, idx, { param; outcome; seconds = Ir_exec.now () -. t0 }))
    cells

let run_defs ?jobs config defs =
  let wld = shared_wld config in
  (* Bunching depends only on the design (WLD + gate pitch), not on the
     materials, clock or budget a point varies — one bunching serves
     every point of the run. *)
  let pitch = Ir_tech.Design.effective_gate_pitch config.design in
  let bunches =
    Ir_wld.Coarsen.bunch ~bunch_size:config.bunch_size ~pitch wld
  in
  let problem_of_materials materials =
    let arch =
      Ir_ia.Arch.make ~structure:config.structure ~materials
        ~design:config.design ()
    in
    Ir_assign.Problem.of_bunches ~activity:config.activity
      ~power_budget:config.power_budget ~target_model:config.target_model
      ~arch ~bunches ()
  in
  let base = problem_of_materials Ir_ia.Materials.default in
  let cells =
    Array.of_list
      (List.concat
         (List.mapi
            (fun sweep d ->
              List.mapi (fun idx (param, pt) -> (sweep, idx, param, pt)) d.d_points)
            defs))
  in
  assemble defs
    (match config.algo with
    | Ir_core.Rank.Dp -> run_grid ?jobs base cells
    | algo -> run_each ?jobs algo problem_of_materials base cells)

let grid_desc ~from ~until ~step =
  Ir_phys.Numeric.frange ~start:from ~stop:until ~step:(-.step)

let k_def () =
  {
    d_name = "K";
    d_legend = "ILD permittivity";
    d_paper = Paper_data.table4_k;
    d_points =
      List.map
        (fun k ->
          (k, Ir_core.Rank_grid.point ~materials:(Ir_ia.Materials.v ~k ()) ()))
        (grid_desc ~from:3.9 ~until:1.8 ~step:0.1);
  }

let m_def () =
  {
    d_name = "M";
    d_legend = "Miller coupling factor";
    d_paper = Paper_data.table4_m;
    d_points =
      List.map
        (fun m ->
          ( m,
            Ir_core.Rank_grid.point ~materials:(Ir_ia.Materials.v ~miller:m ())
              () ))
        (grid_desc ~from:2.0 ~until:1.0 ~step:0.05);
  }

let c_def () =
  {
    d_name = "C";
    d_legend = "target clock frequency (Hz)";
    d_paper = Paper_data.table4_c;
    d_points =
      List.map
        (fun c -> (c, Ir_core.Rank_grid.point ~clock:c ()))
        (Ir_phys.Numeric.frange ~start:0.5e9 ~stop:1.7e9 ~step:0.1e9);
  }

let r_def () =
  {
    d_name = "R";
    d_legend = "max repeater fraction of die area";
    d_paper = Paper_data.table4_r;
    d_points =
      List.map
        (fun f -> (f, Ir_core.Rank_grid.point ~fraction:f ()))
        [ 0.1; 0.2; 0.3; 0.4; 0.5 ];
  }

let one ?jobs config d = List.hd (run_defs ?jobs config [ d ])

let k_sweep ?jobs ?(config = default_config) () = one ?jobs config (k_def ())

let m_sweep ?jobs ?(config = default_config) () = one ?jobs config (m_def ())

let c_sweep ?jobs ?(config = default_config) () = one ?jobs config (c_def ())

let r_sweep ?jobs ?(config = default_config) () = one ?jobs config (r_def ())

(* The four columns fused into one run: on the grid every plane of the
   four columns builds in one wavefront, so the tail of one column
   cannot idle workers the next could use. *)
let all ?jobs ?(config = default_config) () =
  run_defs ?jobs config [ k_def (); m_def (); c_def (); r_def () ]

let normalized sweep =
  List.map
    (fun r -> (r.param, Ir_core.Outcome.normalized r.outcome))
    sweep.rows
