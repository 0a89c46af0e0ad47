(* Tests for the synthetic Rent-rule circuit generator and the WLD
   extraction that validates the Davis closed form. *)

open Helpers

let circuit = Ir_netlist.Circuit.generate ~gates:16384 ()

let test_generate_shape () =
  Alcotest.(check int) "power-of-four grid" (128 * 128)
    (Ir_netlist.Circuit.gates circuit);
  Alcotest.(check bool) "has nets" true
    (Array.length circuit.nets > 1000);
  (* All endpoints in range, none degenerate at generation level
     (src and dst sit in different quadrants of some block). *)
  Array.iter
    (fun { Ir_netlist.Circuit.src; dst } ->
      Alcotest.(check bool) "src in range" true
        (src >= 0 && src < Ir_netlist.Circuit.gates circuit);
      Alcotest.(check bool) "dst in range" true
        (dst >= 0 && dst < Ir_netlist.Circuit.gates circuit);
      Alcotest.(check bool) "two distinct pins" true (src <> dst))
    circuit.nets

let test_generate_deterministic () =
  let a = Ir_netlist.Circuit.generate ~seed:7 ~gates:1024 () in
  let b = Ir_netlist.Circuit.generate ~seed:7 ~gates:1024 () in
  Alcotest.(check bool) "same seed, same circuit" true (a.nets = b.nets);
  let c = Ir_netlist.Circuit.generate ~seed:8 ~gates:1024 () in
  Alcotest.(check bool) "different seed, different circuit" true
    (a.nets <> c.nets)

let test_generate_validation () =
  Alcotest.check_raises "gates"
    (Invalid_argument "Circuit.generate: gates must be > 0") (fun () ->
      ignore (Ir_netlist.Circuit.generate ~gates:0 ()));
  Alcotest.check_raises "rent"
    (Invalid_argument "Circuit.generate: rent_p must lie in (0, 1)")
    (fun () -> ignore (Ir_netlist.Circuit.generate ~rent_p:1.2 ~gates:64 ()))

let test_position () =
  let x, y = Ir_netlist.Circuit.position circuit 129 in
  Alcotest.(check (pair int int)) "position" (1, 1) (x, y);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Circuit.position: out of range") (fun () ->
      ignore
        (Ir_netlist.Circuit.position circuit
           (Ir_netlist.Circuit.gates circuit)))

let test_net_count_scale () =
  (* Terminal conservation puts the count near alpha * k * N / 2. *)
  let n = float_of_int (Ir_netlist.Circuit.gates circuit) in
  let expected = 0.75 *. 4.0 *. n /. 2.0 in
  let actual = float_of_int (Array.length circuit.nets) in
  check_in_range "net count near terminal bookkeeping"
    ~lo:(0.75 *. expected) ~hi:(1.25 *. expected) actual

let test_extracted_wld () =
  let d = Ir_netlist.Extract.wld circuit in
  Alcotest.(check (result unit string)) "valid distribution" (Ok ())
    (Ir_wld.Dist.check_invariants d);
  Alcotest.(check int) "mass equals nets" (Array.length circuit.nets)
    (Ir_wld.Dist.total d);
  Alcotest.(check bool) "lengths bounded by grid diameter" true
    (Ir_wld.Dist.l_max d <= 2.0 *. 128.0)

let test_davis_agreement () =
  let v = Ir_netlist.Extract.validate_against_davis circuit in
  check_in_range "mean within 2x of Davis"
    ~lo:(0.5 *. v.davis_mean) ~hi:(2.0 *. v.davis_mean) v.measured_mean;
  check_in_range "tail within 3x of Davis"
    ~lo:(v.davis_tail /. 3.0) ~hi:(3.0 *. v.davis_tail) v.measured_tail;
  check_in_range "net count ratio ~ 0.5" ~lo:0.35 ~hi:0.7 v.net_count_ratio

let test_rent_tail_ordering () =
  (* Higher Rent exponent must fatten the measured tail too, exactly as
     it does the closed form (Davis suite's companion property). *)
  let tail p =
    let c = Ir_netlist.Circuit.generate ~seed:3 ~rent_p:p ~gates:16384 () in
    let v = Ir_netlist.Extract.validate_against_davis c in
    v.measured_tail
  in
  Alcotest.(check bool) "p=0.7 tail > p=0.5 tail" true (tail 0.7 > tail 0.5)

let test_rank_on_synthetic_wld () =
  (* End-to-end: rank an architecture against the measured WLD. *)
  let design = Ir_tech.Design.v ~node:Ir_tech.Node.N130 ~gates:16384 () in
  let arch = Ir_ia.Arch.make ~design () in
  let wld = Ir_netlist.Extract.wld circuit in
  let problem = Ir_assign.Problem.make ~bunch_size:200 ~arch ~wld () in
  let o = Ir_core.Rank.compute problem in
  Alcotest.(check bool) "synthetic netlist is rankable" true o.assignable;
  Alcotest.(check bool) "positive rank" true (o.rank_wires > 0)

let prop_generation_sane =
  qtest ~count:20 "random parameters generate consistent circuits"
    QCheck2.Gen.(triple (int_range 1 1000) (float_range 0.35 0.75)
                   (int_range 64 4096))
    (fun (seed, rent_p, gates) ->
      let c = Ir_netlist.Circuit.generate ~seed ~rent_p ~gates () in
      Array.for_all
        (fun { Ir_netlist.Circuit.src; dst } ->
          src <> dst && src >= 0 && dst >= 0
          && src < Ir_netlist.Circuit.gates c
          && dst < Ir_netlist.Circuit.gates c)
        c.nets
      && (gates <= 1 || Array.length c.nets > 0))

let () =
  Alcotest.run "netlist"
    [
      ( "circuit",
        [
          Alcotest.test_case "shape" `Quick test_generate_shape;
          Alcotest.test_case "deterministic" `Quick
            test_generate_deterministic;
          Alcotest.test_case "validation" `Quick test_generate_validation;
          Alcotest.test_case "position" `Quick test_position;
          Alcotest.test_case "net count scale" `Quick test_net_count_scale;
          prop_generation_sane;
        ] );
      ( "extract",
        [
          Alcotest.test_case "wld" `Quick test_extracted_wld;
          Alcotest.test_case "agrees with Davis" `Quick test_davis_agreement;
          Alcotest.test_case "Rent tail ordering" `Slow
            test_rent_tail_ordering;
          Alcotest.test_case "rank on synthetic WLD" `Slow
            test_rank_on_synthetic_wld;
        ] );
    ]
