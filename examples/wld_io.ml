(* Evaluating an architecture against a user-supplied WLD.

   The rank metric works for any wire length distribution, not just the
   stochastic Davis model: this example writes a Davis WLD to CSV (the
   same thing an extraction flow would produce from a real netlist),
   perturbs it — doubling the long-wire tail, as a datapath-heavy design
   might — reloads it, and compares ranks.

   Run with:  dune exec examples/wld_io.exe *)

let () =
  let design = Ir_core.Rank.baseline_design Ir_tech.Node.N130 in
  let arch = Ir_ia.Arch.make ~design () in
  let davis =
    Ir_wld.Davis.generate
      (Ir_wld.Davis.params ~gates:design.gates ~rent_p:design.rent_p
         ~fan_out:design.fan_out ())
  in

  (* Round-trip through the CSV format. *)
  let path = Filename.temp_file "davis_wld" ".csv" in
  (match Ir_wld.Io.save path davis with
  | Ok () -> Format.printf "wrote %s (%d bins)@." path (Ir_wld.Dist.n_bins davis)
  | Error e -> failwith e);
  let reloaded =
    match Ir_wld.Io.load path with Ok d -> d | Error e -> failwith e
  in
  Sys.remove path;
  assert (Ir_wld.Dist.equal davis reloaded);

  (* A tail-heavy variant: 25% more wires beyond 100 gate pitches. *)
  let tail_heavy =
    Ir_wld.Dist.of_bins
      (Array.to_list (Ir_wld.Dist.bins davis)
      |> List.map (fun (b : Ir_wld.Dist.bin) ->
             if b.length > 100.0 then { b with count = b.count * 5 / 4 }
             else b))
  in

  let rank wld =
    Ir_core.Rank.compute (Ir_assign.Problem.make ~arch ~wld ())
  in
  Format.printf "Davis WLD      : %a@." Ir_core.Outcome.pp_human (rank davis);
  Format.printf "tail-heavy WLD : %a@." Ir_core.Outcome.pp_human
    (rank tail_heavy);
  Format.printf
    "@.The tail-heavy netlist ranks lower on the same architecture: more \
     long wires@.compete for the same repeater budget — the \
     design-dependence the paper's@.Section 3 asks of an IA metric.@."
