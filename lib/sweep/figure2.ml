type scenario = {
  problem : Ir_assign.Problem.t;
  greedy : Ir_core.Outcome.t;
  optimal : Ir_core.Outcome.t;
  exact : Ir_core.Outcome.t;
}

let um = Ir_phys.Units.um

(* Inverted stack: the "global" pair on top is thin, resistive and tightly
   coupled (high r̄ and c̄); the "semi-global" pair below is fat and fast.
   Figure 2's premise: "RC delay of the upper layer-pair is much larger
   than that of the bottom layer-pair". *)
let stack () =
  {
    Ir_tech.Stack.node =
      Ir_tech.Node.Custom { name = "figure2"; feature = 130e-9 };
    local = Ir_tech.Geometry.v ~width:(um 0.16) ~spacing:(um 0.18)
        ~thickness:(um 0.336) ();
    semi_global =
      Ir_tech.Geometry.v ~width:(um 0.40) ~spacing:(um 0.40)
        ~thickness:(um 0.40) ();
    global =
      Ir_tech.Geometry.v ~width:(um 0.10) ~spacing:(um 0.10)
        ~thickness:(um 0.20) ();
    mx_layers = 2;
    mt_layers = 1;
  }

let structure =
  { Ir_ia.Arch.local_pairs = 0; semi_global_pairs = 1; global_pairs = 1 }

let build ~wire_length ~clock ~gates ~repeater_fraction =
  let node = Ir_tech.Node.Custom { name = "figure2"; feature = 130e-9 } in
  let design = Ir_tech.Design.v ~node ~gates ~clock ~repeater_fraction () in
  let arch = Ir_ia.Arch.make ~structure ~stack:(stack ()) ~design () in
  let bunches =
    { Ir_wld.Coarsen.lengths = Array.make 4 wire_length;
      counts = Array.make 4 1 }
  in
  Ir_assign.Problem.of_bunches ~arch ~bunches ()

(* Search a deterministic grid for a (length, clock) combination where the
   counterexample manifests: budget sized for exactly four bottom-pair
   wires, greedy spends it on two top-pair wires. *)
let scenario () =
  let try_one ~wire_length ~clock =
    (* Gate count making each pair comfortably hold all four wires. *)
    let node = Ir_tech.Node.Custom { name = "figure2"; feature = 130e-9 } in
    let g = Ir_tech.Node.gate_pitch node in
    let pitch_b = um 0.8 in
    let gates =
      max 64
        (int_of_float
           (Float.ceil (3.0 *. wire_length *. pitch_b *. 0.6 /. (g *. g))))
    in
    (* First pass with a placeholder budget to read off the bottom pair's
       repeater need; then rebuild with the budget for exactly four
       bottom-pair wires. *)
    let probe =
      build ~wire_length ~clock ~gates ~repeater_fraction:0.99
    in
    match Ir_assign.Problem.eta_min probe ~pair:1 ~bunch:0 with
    | None -> None
    | Some eta_b ->
          let arch = Ir_assign.Problem.arch probe in
          let bottom = Ir_ia.Arch.pair arch 1 in
          let budget =
            4.0 *. float_of_int eta_b *. bottom.Ir_ia.Layer_pair.repeater_area
          in
          let die = Ir_ia.Arch.pair_capacity arch /. 2.0 in
          let fraction = budget /. die in
          if fraction >= 1.0 then None
          else
            let problem =
              build ~wire_length ~clock ~gates ~repeater_fraction:fraction
            in
            let greedy = Ir_core.Rank_greedy.compute problem in
            let optimal = Ir_core.Rank.compute problem in
            if
              greedy.Ir_core.Outcome.rank_wires = 2
              && optimal.Ir_core.Outcome.rank_wires = 4
            then
              let exact = Ir_core.Rank_exact.compute ~r_steps:16 problem in
              Some { problem; greedy; optimal; exact }
            else None
  in
  let lengths = List.map Ir_phys.Units.mm [ 0.5; 1.0; 2.0; 4.0; 8.0 ] in
  let clocks =
    List.map Ir_phys.Units.ghz
      [ 0.2; 0.3; 0.4; 0.5; 0.7; 1.0; 1.4; 2.0; 3.0; 5.0 ]
  in
  let found =
    List.find_map
      (fun wire_length ->
        List.find_map (fun clock -> try_one ~wire_length ~clock) clocks)
      lengths
  in
  match found with
  | Some s -> s
  | None ->
      failwith
        "Figure2.scenario: no counterexample found on the search grid \
         (calibration drift?)"
