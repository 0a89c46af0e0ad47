(* Noise-aware rank and the shielding tradeoff.

   The paper reaches its minimum Miller factor of 1.0 "by double-sided
   shielding of lines" (its footnote 8).  Shielding buys two things at
   once: the delay improvement the paper's Table 4 column M quantifies,
   and immunity to coupling noise.  This example evaluates the rank under
   peak-noise budgets, with and without shielding, and prints the
   per-pair noise the budgets act on.

   Run with:  dune exec examples/noise_shielding.exe *)

let () =
  let design = Ir_core.Rank.baseline_design Ir_tech.Node.N130 in
  let stack = Ir_tech.Stack.of_node Ir_tech.Node.N130 in

  Format.printf "Peak coupling noise per layer class (charge sharing):@.";
  List.iter
    (fun cls ->
      let g = Ir_tech.Stack.geometry stack cls in
      Format.printf "  %-12s %.1f%% of Vdd@."
        (Ir_tech.Metal_class.to_string cls)
        (100.0 *. Ir_rc.Noise.peak_ratio g))
    Ir_tech.Metal_class.all;

  let wld =
    Ir_wld.Davis.generate
      (Ir_wld.Davis.params ~gates:design.gates ~rent_p:design.rent_p
         ~fan_out:design.fan_out ())
  in
  let rank ?noise_limit ~miller () =
    let arch =
      Ir_ia.Arch.make ~materials:(Ir_ia.Materials.v ~miller ()) ~design ()
    in
    Ir_core.Outcome.normalized
      (Ir_core.Rank.compute
         (Ir_assign.Problem.make ?noise_limit ~arch ~wld ()))
  in
  Format.printf "@.Rank of the 130nm/1M baseline under noise budgets:@.@.";
  let rows =
    List.map
      (fun (label, noise_limit) ->
        [
          label;
          Printf.sprintf "%.6f" (rank ?noise_limit ~miller:2.0 ());
          Printf.sprintf "%.6f" (rank ?noise_limit ~miller:1.0 ());
        ])
      [
        ("none", None);
        ("30% Vdd", Some 0.30);
        ("25% Vdd", Some 0.25);
        ("20% Vdd", Some 0.20);
      ]
  in
  Ir_sweep.Report.table
    ~header:[ "noise budget"; "unshielded (M=2)"; "shielded (M=1)" ]
    ~rows Format.std_formatter;
  Format.printf
    "@.Tight budgets zero the unshielded rank (every minimum-pitch pair \
     violates them),@.while the shielded architecture keeps both its noise \
     immunity and its higher rank.@."
