type spec = {
  sigma_k : float;
  sigma_miller : float;
  sigma_rho : float;
  sigma_device : float;
}
[@@deriving show, eq]

let default_spec =
  { sigma_k = 0.05; sigma_miller = 0.05; sigma_rho = 0.05;
    sigma_device = 0.05 }

type summary = {
  nominal : float;
  mean : float;
  std : float;
  min : float;
  max : float;
  samples : int;
}
[@@deriving show]

(* Box-Muller standard normal from the seeded state. *)
let gaussian rng =
  let u1 = Random.State.float rng 1.0 in
  let u2 = Random.State.float rng 1.0 in
  sqrt (-2.0 *. log (Float.max u1 1e-12)) *. cos (2.0 *. Float.pi *. u2)

let factor rng sigma = exp (sigma *. gaussian rng)

let run ?(spec = default_spec) ?(samples = 25) ?(seed = 42)
    ?(bunch_size = 10000) design =
  if samples <= 0 then invalid_arg "Variation.run: samples must be > 0";
  List.iter
    (fun s -> if s < 0.0 then invalid_arg "Variation.run: negative sigma")
    [ spec.sigma_k; spec.sigma_miller; spec.sigma_rho; spec.sigma_device ];
  let rng = Random.State.make [| seed |] in
  let wld =
    Ir_wld.Davis.generate
      (Ir_wld.Davis.params ~gates:design.Ir_tech.Design.gates
         ~rent_p:design.Ir_tech.Design.rent_p
         ~fan_out:design.Ir_tech.Design.fan_out ())
  in
  let node = design.Ir_tech.Design.node in
  let nominal_device = Ir_tech.Device.of_node node in
  let rank ~k ~miller ~rho ~device =
    let arch =
      Ir_ia.Arch.make ~materials:(Ir_ia.Materials.v ~k ~miller ~rho ())
        ~device ~design ()
    in
    Ir_core.Outcome.normalized
      (Ir_core.Rank.compute
         (Ir_assign.Problem.make ~bunch_size ~arch ~wld ()))
  in
  let nominal =
    rank ~k:Ir_phys.Const.k_sio2 ~miller:2.0
      ~rho:(Ir_tech.Node.resistivity node)
      ~device:nominal_device
  in
  let draws =
    List.init samples (fun _ ->
        let k = Ir_phys.Const.k_sio2 *. factor rng spec.sigma_k in
        let miller = 2.0 *. factor rng spec.sigma_miller in
        let rho =
          Ir_tech.Node.resistivity node *. factor rng spec.sigma_rho
        in
        let device =
          Ir_tech.Device.v
            ~r_o:(nominal_device.r_o *. factor rng spec.sigma_device)
            ~c_o:(nominal_device.c_o *. factor rng spec.sigma_device)
            ~c_p:nominal_device.c_p ~area:nominal_device.area
        in
        rank ~k ~miller ~rho ~device)
  in
  let n = float_of_int samples in
  let mean = List.fold_left ( +. ) 0.0 draws /. n in
  let var =
    List.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 draws /. n
  in
  {
    nominal;
    mean;
    std = sqrt var;
    min = List.fold_left Float.min infinity draws;
    max = List.fold_left Float.max neg_infinity draws;
    samples;
  }
