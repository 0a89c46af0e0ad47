type result = {
  arch : Ir_ia.Arch.t;
  outcome : Ir_core.Outcome.t;
  initial : Ir_core.Outcome.t;
  evaluations : int;
  accepted : int;
}

(* The annealing state: one geometry per pair (top-down), mutated one
   dimension at a time. *)
type dims = { width : float; spacing : float; thickness : float }

let geometry_of_dims ~via_width d =
  Ir_tech.Geometry.v ~width:d.width ~spacing:d.spacing
    ~thickness:d.thickness ~ild_thickness:d.thickness ~via_width ()

let optimize ?(seed = 42) ?(steps = 120) ?(bunch_size = 2000)
    ?(initial_temperature = 0.02) ?(move_scale = 0.25) design =
  if steps <= 0 then invalid_arg "Anneal.optimize: steps must be > 0";
  if bunch_size <= 0 then
    invalid_arg "Anneal.optimize: bunch_size must be > 0";
  if not (initial_temperature > 0.0) then
    invalid_arg "Anneal.optimize: initial_temperature must be > 0";
  if not (move_scale > 0.0) then
    invalid_arg "Anneal.optimize: move_scale must be > 0";
  let rng = Random.State.make [| seed |] in
  let wld =
    Ir_wld.Davis.generate
      (Ir_wld.Davis.params ~gates:design.Ir_tech.Design.gates
         ~rent_p:design.Ir_tech.Design.rent_p
         ~fan_out:design.Ir_tech.Design.fan_out ())
  in
  let baseline = Ir_ia.Arch.make ~design () in
  let classes =
    Array.map (fun (p : Ir_ia.Layer_pair.t) -> p.cls) baseline.pairs
  in
  let via_widths =
    Array.map
      (fun (p : Ir_ia.Layer_pair.t) -> p.geom.Ir_tech.Geometry.via_width)
      baseline.pairs
  in
  let floors =
    (* Never shrink below half the node's M1 dimensions — a lithography
       floor that keeps the search physical. *)
    let m1 = (Ir_tech.Stack.of_node design.Ir_tech.Design.node).local in
    {
      width = 0.5 *. m1.Ir_tech.Geometry.width;
      spacing = 0.5 *. m1.Ir_tech.Geometry.spacing;
      thickness = 0.5 *. m1.Ir_tech.Geometry.thickness;
    }
  in
  let build state =
    let pairs =
      Array.to_list
        (Array.mapi
           (fun i d ->
             (classes.(i), geometry_of_dims ~via_width:via_widths.(i) d))
           state)
    in
    Ir_ia.Arch.custom ~materials:baseline.materials ~design ~pairs ()
  in
  let evaluations = ref 0 in
  let energy arch =
    incr evaluations;
    let o =
      Ir_core.Rank.compute
        (Ir_assign.Problem.make ~bunch_size ~arch ~wld ())
    in
    let e =
      if o.Ir_core.Outcome.assignable then
        -.Ir_core.Outcome.normalized o
      else 1.0 (* Definition 3: strongly repelled *)
    in
    (e, o)
  in
  let state =
    Array.map
      (fun (p : Ir_ia.Layer_pair.t) ->
        {
          width = p.geom.Ir_tech.Geometry.width;
          spacing = p.geom.Ir_tech.Geometry.spacing;
          thickness = p.geom.Ir_tech.Geometry.thickness;
        })
      baseline.pairs
  in
  let current_arch = ref (build state) in
  let current_e, initial_outcome = energy !current_arch in
  let current_e = ref current_e in
  let best_arch = ref !current_arch in
  let best_e = ref !current_e in
  let best_outcome = ref initial_outcome in
  let accepted = ref 0 in
  let cooling = Float.pow 0.01 (1.0 /. float_of_int steps) in
  let temperature = ref initial_temperature in
  for _ = 1 to steps do
    let pair = Random.State.int rng (Array.length state) in
    let dim = Random.State.int rng 3 in
    let f = exp ((Random.State.float rng 2.0 -. 1.0) *. move_scale) in
    let old = state.(pair) in
    let proposed =
      match dim with
      | 0 -> { old with width = Float.max floors.width (old.width *. f) }
      | 1 ->
          { old with spacing = Float.max floors.spacing (old.spacing *. f) }
      | _ ->
          {
            old with
            thickness = Float.max floors.thickness (old.thickness *. f);
          }
    in
    state.(pair) <- proposed;
    let arch = build state in
    let e, o = energy arch in
    let de = e -. !current_e in
    let accept =
      de <= 0.0
      || Random.State.float rng 1.0 < exp (-.de /. !temperature)
    in
    if accept then begin
      incr accepted;
      current_arch := arch;
      current_e := e;
      if e < !best_e then begin
        best_e := e;
        best_arch := arch;
        best_outcome := o
      end
    end
    else state.(pair) <- old;
    temperature := !temperature *. cooling
  done;
  {
    arch = !best_arch;
    outcome = !best_outcome;
    initial = initial_outcome;
    evaluations = !evaluations;
    accepted = !accepted;
  }
