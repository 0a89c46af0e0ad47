(* Validating the stochastic WLD against synthetic placed circuits.

   The paper adopts the Davis closed-form wire length distribution (its
   footnote 2) without re-validating it.  This example generates
   Rent-rule synthetic circuits (hierarchy = placement), measures their
   actual Manhattan wire lengths, compares the distribution with the
   closed form, and shows the rank metric is stable across the two.

   Run with:  dune exec examples/netlist_validation.exe *)

let () =
  Format.printf
    "Davis closed form vs measured synthetic-circuit WLDs (p = 0.6, f.o. \
     = 3):@.@.";
  let rows =
    List.map
      (fun gates ->
        let c = Ir_netlist.Circuit.generate ~gates () in
        let v = Ir_netlist.Extract.validate_against_davis c in
        [
          string_of_int v.gates;
          Printf.sprintf "%.2f" v.measured_mean;
          Printf.sprintf "%.2f" v.davis_mean;
          Printf.sprintf "%.4f" v.measured_tail;
          Printf.sprintf "%.4f" v.davis_tail;
        ])
      [ 4_096; 16_384; 65_536; 262_144 ]
  in
  Ir_sweep.Report.table
    ~header:
      [ "gates"; "mean (meas.)"; "mean (Davis)"; "tail (meas.)";
        "tail (Davis)" ]
    ~rows Format.std_formatter;

  (* Rank stability: same architecture, measured vs closed-form WLD. *)
  let gates = 65_536 in
  let design = Ir_tech.Design.v ~node:Ir_tech.Node.N130 ~gates () in
  let arch = Ir_ia.Arch.make ~design () in
  let rank wld =
    Ir_core.Outcome.normalized
      (Ir_core.Rank.compute
         (Ir_assign.Problem.make ~bunch_size:500 ~arch ~wld ()))
  in
  let raw = Ir_netlist.Extract.wld (Ir_netlist.Circuit.generate ~gates ()) in
  (* The synthetic generator conserves Rent terminals, which yields about
     half of Davis's directed-connection count (sources are shared by
     multi-fan-out nets; see Ir_netlist.Circuit).  Double the counts so
     both WLDs describe the same traffic volume before comparing ranks. *)
  let measured =
    Ir_wld.Dist.of_bins
      (Array.to_list (Ir_wld.Dist.bins raw)
      |> List.map (fun (b : Ir_wld.Dist.bin) -> { b with count = 2 * b.count }))
  in
  let davis = Ir_wld.Davis.generate (Ir_wld.Davis.params ~gates ()) in
  Format.printf "@.Rank of the 130nm architecture at %d gates:@." gates;
  Format.printf "  against the Davis WLD                    : %.4f@."
    (rank davis);
  Format.printf "  against the measured WLD (count-matched) : %.4f@."
    (rank measured);
  Format.printf
    "@.With traffic volumes matched, the closed form and the placed \
     synthetic circuits@.agree on the architecture's rank to within the \
     distributions' shape difference.@."
