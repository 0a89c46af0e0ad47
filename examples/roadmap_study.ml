(* Rank across ITRS generations: the paper's concluding claim.

   "The variation of rank with several geometric and technology
   parameters shows the need to co-optimize across several material,
   process, and design characteristics... it is not possible to enable
   future MPU-class designs by material improvements alone."  (Section 6)

   Two tables over the ITRS-2001-style roadmap, each generation on its
   own stack depth, under three material assumptions — frozen SiO2
   (k = 3.9, Miller 2), the roadmap low-k trend, and low-k plus full
   shielding (Miller 1):

   (a) a constant 1M-gate, 500 MHz design migrated across generations:
       here the repeater budget binds and the material columns separate —
       the per-generation value of the roadmap's material program;
   (b) each generation's own MPU-class design at its own roadmap clock:
       here the linear delay targets tighten with die size and frequency
       until whole length classes become infeasible, and no material
       column escapes the collapse — the paper's "not possible to enable
       future MPU-class designs by material improvements alone".

   Run with:  dune exec examples/roadmap_study.exe
   (the 2010 generation is a 16M-gate design; allow ~a minute) *)

let architecture ?gates ~clock entry ~k ~miller =
  let node = entry.Ir_tech.Itrs.node in
  (* Grow the stack to the generation's metal-layer count: 1 M1 layer,
     one Mt layer, the rest Mx. *)
  let stack =
    { (Ir_tech.Stack.of_node node) with
      mx_layers = entry.Ir_tech.Itrs.metal_layers - 2 }
  in
  let structure =
    {
      Ir_ia.Arch.local_pairs = 1;
      semi_global_pairs =
        Ir_tech.Stack.max_pairs stack Ir_tech.Metal_class.Semi_global;
      global_pairs = 1;
    }
  in
  let design = Ir_tech.Itrs.design_of_entry ?gates ~clock entry in
  Ir_ia.Arch.make ~structure ~stack
    ~materials:(Ir_ia.Materials.v ~k ~miller ())
    ~design ()

let rank ?gates ~clock entry ~k ~miller =
  let arch = architecture ?gates ~clock entry ~k ~miller in
  let design = arch.Ir_ia.Arch.design in
  let wld =
    Ir_wld.Davis.generate
      (Ir_wld.Davis.params ~gates:design.Ir_tech.Design.gates
         ~rent_p:design.rent_p ~fan_out:design.fan_out ())
  in
  Ir_core.Outcome.normalized
    (Ir_core.Rank.compute (Ir_assign.Problem.make ~arch ~wld ()))

let material_columns ?gates ~clock (e : Ir_tech.Itrs.entry) =
  [
    Printf.sprintf "%.4f" (rank ?gates ~clock e ~k:3.9 ~miller:2.0);
    Printf.sprintf "%.4f" (rank ?gates ~clock e ~k:e.ild_k ~miller:2.0);
    Printf.sprintf "%.4f" (rank ?gates ~clock e ~k:e.ild_k ~miller:1.0);
  ]

let material_header = [ "frozen SiO2"; "roadmap low-k"; "low-k + shielding" ]

let () =
  Format.printf
    "(a) Constant design (1M gates, 500 MHz) migrated across \
     generations:@.@.";
  Ir_sweep.Report.table
    ~header:([ "year"; "node"; "layers" ] @ material_header)
    ~rows:
      (List.map
         (fun (e : Ir_tech.Itrs.entry) ->
           [ string_of_int e.year; Ir_tech.Node.name e.node;
             string_of_int e.metal_layers ]
           @ material_columns ~gates:1_000_000 ~clock:0.5e9 e)
         Ir_tech.Itrs.roadmap)
    Format.std_formatter;
  Format.printf
    "@.(b) Each generation's MPU-class design at its own roadmap \
     clock:@.@.";
  Ir_sweep.Report.table
    ~header:([ "year"; "node"; "gates"; "clock" ] @ material_header)
    ~rows:
      (List.map
         (fun (e : Ir_tech.Itrs.entry) ->
           [
             string_of_int e.year; Ir_tech.Node.name e.node;
             string_of_int e.mpu_gates;
             Printf.sprintf "%.1f GHz" (e.max_clock /. 1e9);
           ]
           @ material_columns ~clock:e.max_clock e)
         Ir_tech.Itrs.roadmap)
    Format.std_formatter;
  Format.printf
    "@.In (a) the budget binds and each material step buys rank.  In (b) \
     the roadmap's@.own clocks and die sizes tighten the delay targets \
     until rank collapses for every@.material column — the paper's \
     conclusion that materials alone cannot enable@.future MPU-class \
     designs.@."
