type step = {
  structure : Ir_ia.Arch.structure;
  outcome : Ir_core.Outcome.t;
}
[@@deriving show]

let ladder stack =
  let max_sg = Ir_tech.Stack.max_pairs stack Ir_tech.Metal_class.Semi_global in
  let max_gl = Ir_tech.Stack.max_pairs stack Ir_tech.Metal_class.Global in
  let base =
    { Ir_ia.Arch.local_pairs = 1; semi_global_pairs = 0; global_pairs = 0 }
  in
  let with_sg =
    List.init max_sg (fun i ->
        { base with Ir_ia.Arch.semi_global_pairs = i + 1 })
  in
  let with_gl =
    List.init max_gl (fun i ->
        {
          base with
          Ir_ia.Arch.semi_global_pairs = max_sg;
          global_pairs = i + 1;
        })
  in
  (base :: with_sg) @ with_gl

let search ?(bunch_size = 10000) ~accept design =
  let stack = Ir_tech.Stack.of_node design.Ir_tech.Design.node in
  let wld =
    Ir_wld.Davis.generate
      (Ir_wld.Davis.params ~gates:design.Ir_tech.Design.gates
         ~rent_p:design.Ir_tech.Design.rent_p
         ~fan_out:design.Ir_tech.Design.fan_out ())
  in
  let evaluate structure =
    let arch = Ir_ia.Arch.make ~structure ~stack ~design () in
    let problem = Ir_assign.Problem.make ~bunch_size ~arch ~wld () in
    { structure; outcome = Ir_core.Rank.compute problem }
  in
  let steps = List.map evaluate (ladder stack) in
  match List.find_opt (fun s -> accept s.outcome) steps with
  | Some s -> Ok (s, steps)
  | None -> Error "no structure within the stack satisfies the target"

let min_pairs_for_assignability ?bunch_size design =
  search ?bunch_size ~accept:(fun o -> o.Ir_core.Outcome.assignable) design

let min_pairs_for_rank ?bunch_size ~target design =
  if not (target >= 0.0 && target <= 1.0) then
    invalid_arg "Layers.min_pairs_for_rank: target must lie in [0, 1]";
  search ?bunch_size
    ~accept:(fun o -> Ir_core.Outcome.normalized o >= target)
    design
