type row = {
  fraction : float;
  budget : float;
  outcome : Ir_core.Outcome.t;
  power : float;
}

type result = {
  activity : float;
  unconstrained : Ir_core.Outcome.t;
  unconstrained_power : float;
  rows : row list;
  seconds : float;
}

(* Denser near the pinch: the interesting part of the frontier is where
   the budget starts displacing the area-optimal witness, which on the
   baseline happens well below half the unconstrained spend. *)
let default_fractions =
  [ 0.05; 0.1; 0.15; 0.2; 0.25; 0.3; 0.4; 0.5; 0.6; 0.8; 1.0 ]

let run ?jobs ?(config = Table4.default_config) ?activity
    ?(fractions = default_fractions) () =
  List.iter
    (fun f ->
      if not (f > 0.0 && f <= 1.0) then
        invalid_arg "Power_pareto.run: fractions must lie in (0, 1]")
    fractions;
  let base = Table4.baseline_problem ?activity config in
  let t0 = Ir_exec.now () in
  (* One resident plane at the baseline's own budget answers every
     point: a power budget is an area cap no larger than that budget, so
     each point is a phase-B search over the rebound tables
     ([Rank_grid.query]).  A truncated plane answers only the baseline's
     own budget; every narrower point is its own one-cell compute. *)
  let grid = Ir_core.Rank_grid.resident ?jobs base in
  let here = Ir_core.Rank_grid.point () in
  ignore (Ir_core.Rank_grid.build_plane grid here);
  let answer ?power_budget () =
    match Ir_core.Rank_grid.query ?power_budget grid here with
    | Some r -> r
    | None ->
        Ir_core.Rank_grid.compute
          (match power_budget with
          | None -> base
          | Some b -> Ir_assign.Problem.with_power_budget base b)
  in
  (* Anchor: the area-only optimum and the watts its witness burns.
     Fractions of that spend make the sweep self-calibrating — the grid
     tracks the model constants instead of hard-coding watt values. *)
  let unconstrained, w = answer () in
  let p_inf =
    match w with Some w -> Ir_power.Power.of_witness base w | None -> 0.0
  in
  let rows =
    if p_inf <= 0.0 then
      (* Unassignable (or repeater-free) baseline: there is no spend to
         budget a fraction of, and a frontier over it would be all
         unassignable points. *)
      []
    else
      List.map
        (fun fraction ->
          let budget = fraction *. p_inf in
          let outcome, w = answer ~power_budget:budget () in
          let power =
            match w with Some w -> Ir_power.Power.of_witness base w | None -> 0.0
          in
          { fraction; budget; outcome; power })
        fractions
  in
  {
    activity = Ir_assign.Problem.activity base;
    unconstrained;
    unconstrained_power = p_inf;
    rows;
    seconds = Ir_exec.now () -. t0;
  }

let monotone result =
  let rec walk = function
    | a :: (b :: _ as rest) ->
        a.outcome.Ir_core.Outcome.rank_wires
        <= b.outcome.Ir_core.Outcome.rank_wires
        && walk rest
    | _ -> true
  in
  (* Ascending fractions: the rank may only grow with the budget, and
     the full-spend point must recover the unconstrained rank (budget =
     the unconstrained witness's own power makes that witness
     feasible). *)
  walk result.rows
  && (match List.rev result.rows with
     | last :: _ when last.fraction = 1.0 ->
         last.outcome.Ir_core.Outcome.rank_wires
         = result.unconstrained.Ir_core.Outcome.rank_wires
     | _ -> true)
