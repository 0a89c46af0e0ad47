type algo = Dp | Greedy | Exact of { r_steps : int } [@@deriving show, eq]

let problem_of_design ?structure ?materials ?target_model ?bunch_size design
    =
  let arch = Ir_ia.Arch.make ?structure ?materials ~design () in
  let wld =
    Ir_wld.Davis.generate
      (Ir_wld.Davis.params ~gates:design.Ir_tech.Design.gates
         ~rent_p:design.Ir_tech.Design.rent_p
         ~fan_out:design.Ir_tech.Design.fan_out ())
  in
  Ir_assign.Problem.make ?target_model ?bunch_size ~arch ~wld ()

let compute ?(algo = Dp) ?prune problem =
  match algo with
  | Dp -> fst (Rank_grid.compute ?prune problem)
  | Greedy -> Rank_greedy.compute problem
  | Exact { r_steps } -> Rank_exact.compute ~r_steps problem

let of_design ?algo ?structure ?materials ?target_model ?bunch_size design =
  compute ?algo
    (problem_of_design ?structure ?materials ?target_model ?bunch_size
       design)

let baseline_design ?(gates = 1_000_000) node =
  Ir_tech.Design.v ~node ~gates ()
