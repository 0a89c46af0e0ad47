(* Tests for materials, layer-pairs and architectures. *)

open Helpers

let design = Ir_tech.Design.v ~node:Ir_tech.Node.N130 ~gates:100_000 ()

let test_materials () =
  let m = Ir_ia.Materials.default in
  check_close "default k" 3.9 m.k;
  check_close "default miller" 2.0 m.miller;
  Alcotest.(check bool) "paper cap model" true
    (m.cap_model = Ir_rc.Capacitance.Coupling_only);
  let m2 = Ir_ia.Materials.with_k m 2.0 in
  check_close "with_k" 2.0 m2.k;
  check_close "miller preserved" 2.0 m2.miller;
  Alcotest.check_raises "bad k" (Invalid_argument "Materials: k must be > 0")
    (fun () -> ignore (Ir_ia.Materials.v ~k:(-1.0) ()));
  check_close "rho override" 9.9e-8
    (Ir_ia.Materials.resistivity
       (Ir_ia.Materials.v ~rho:9.9e-8 ())
       Ir_tech.Node.N130);
  check_close "rho default"
    (Ir_tech.Node.resistivity Ir_tech.Node.N130)
    (Ir_ia.Materials.resistivity Ir_ia.Materials.default Ir_tech.Node.N130)

let test_layer_pair () =
  let stack = Ir_tech.Stack.of_node Ir_tech.Node.N130 in
  let device = Ir_tech.Device.of_node Ir_tech.Node.N130 in
  let p =
    Ir_ia.Layer_pair.make ~device ~materials:Ir_ia.Materials.default
      ~node:Ir_tech.Node.N130 ~cls:Ir_tech.Metal_class.Semi_global
      stack.semi_global
  in
  check_close "pitch" (Ir_tech.Geometry.pitch stack.semi_global)
    (Ir_ia.Layer_pair.pitch p);
  check_close "wire area" (2e-3 *. Ir_ia.Layer_pair.pitch p)
    (Ir_ia.Layer_pair.wire_area p 2e-3);
  check_close "repeater area = s_opt * quantum" (p.s_opt *. device.area)
    p.repeater_area;
  check_in_range "s_opt in the usual decades" ~lo:10.0 ~hi:500.0 p.s_opt;
  (* c̄ matches the materials model *)
  check_close "c per m"
    (Ir_rc.Capacitance.effective_per_m ~model:Ir_rc.Capacitance.Coupling_only
       ~k:3.9 ~miller:2.0 stack.semi_global)
    p.line.c_per_m

let test_arch_structure () =
  let arch = Ir_ia.Arch.make ~design () in
  Alcotest.(check int) "baseline pair count" 4 (Ir_ia.Arch.pair_count arch);
  Alcotest.(check bool) "topmost is global" true
    ((Ir_ia.Arch.pair arch 0).cls = Ir_tech.Metal_class.Global);
  Alcotest.(check bool) "bottom is local" true
    ((Ir_ia.Arch.pair arch 3).cls = Ir_tech.Metal_class.Local);
  check_close "capacity is both layers"
    (2.0 *. Ir_tech.Design.die_area design)
    (Ir_ia.Arch.pair_capacity arch);
  check_close "budget" (Ir_tech.Design.repeater_area design)
    (Ir_ia.Arch.repeater_budget arch);
  Alcotest.check_raises "pair out of range"
    (Invalid_argument "Arch.pair: index out of range") (fun () ->
      ignore (Ir_ia.Arch.pair arch 4))

let test_arch_validation () =
  Alcotest.check_raises "too many global pairs"
    (Invalid_argument "Arch.make: 3 global pairs requested, stack provides 1")
    (fun () ->
      ignore
        (Ir_ia.Arch.make
           ~structure:
             { Ir_ia.Arch.local_pairs = 0; semi_global_pairs = 0;
               global_pairs = 3 }
           ~design ()));
  Alcotest.check_raises "empty architecture"
    (Invalid_argument "Arch.make: architecture has no layer-pairs")
    (fun () ->
      ignore
        (Ir_ia.Arch.make
           ~structure:
             { Ir_ia.Arch.local_pairs = 0; semi_global_pairs = 0;
               global_pairs = 0 }
           ~design ()))

let test_blocked_area () =
  let arch = Ir_ia.Arch.make ~design () in
  check_close "no blockage" 0.0
    (Ir_ia.Arch.blocked_area arch ~pair_index:1 ~wires_above:0
       ~repeaters_above:0);
  let pad = (Ir_ia.Arch.pair arch 1).via_area in
  check_close "wires contribute v pads each" (3.0 *. 10.0 *. pad)
    (Ir_ia.Arch.blocked_area arch ~pair_index:1 ~wires_above:10
       ~repeaters_above:0);
  check_close "repeaters contribute one pad each" (7.0 *. pad)
    (Ir_ia.Arch.blocked_area arch ~pair_index:1 ~wires_above:0
       ~repeaters_above:7);
  Alcotest.check_raises "negative counts"
    (Invalid_argument "Arch.blocked_area: negative counts") (fun () ->
      ignore
        (Ir_ia.Arch.blocked_area arch ~pair_index:0 ~wires_above:(-1)
           ~repeaters_above:0))

let test_with_materials () =
  let arch = Ir_ia.Arch.make ~design () in
  let low_k = Ir_ia.Arch.with_materials arch (Ir_ia.Materials.v ~k:2.0 ()) in
  let c0 = (Ir_ia.Arch.pair arch 1).line.c_per_m in
  let c1 = (Ir_ia.Arch.pair low_k 1).line.c_per_m in
  check_close "c scales with k" (2.0 /. 3.9) (c1 /. c0);
  Alcotest.(check bool) "s_opt drops with k" true
    ((Ir_ia.Arch.pair low_k 1).s_opt < (Ir_ia.Arch.pair arch 1).s_opt);
  let faster = Ir_ia.Arch.with_design arch (Ir_tech.Design.with_clock design 1e9) in
  check_close "die preserved" arch.die_area faster.die_area

(* A custom arch may hold more pairs of a class than its node's stack
   provides (the n-tier generator's 3 semi-global tiers on 130nm): a
   rebind keeps its pairs instead of rebuilding from the stack. *)
let test_rebind_custom () =
  let g um_pitch =
    Ir_tech.Geometry.v ~width:(Ir_phys.Units.um um_pitch)
      ~spacing:(Ir_phys.Units.um um_pitch) ~thickness:(Ir_phys.Units.um 0.5)
      ()
  in
  let pairs =
    Ir_tech.Metal_class.
      [
        (Global, g 0.4); (Semi_global, g 0.3); (Semi_global, g 0.25);
        (Semi_global, g 0.2); (Local, g 0.15);
      ]
  in
  let stack = Ir_tech.Stack.of_node design.Ir_tech.Design.node in
  Alcotest.(check bool) "more semi-global pairs than the stack" true
    (Ir_tech.Stack.max_pairs stack Ir_tech.Metal_class.Semi_global < 3);
  let arch = Ir_ia.Arch.custom ~design ~pairs () in
  let low_k = Ir_ia.Materials.v ~k:2.0 () in
  Alcotest.(check string) "with_materials = fresh custom at the new materials"
    (Ir_ia.Arch.show (Ir_ia.Arch.custom ~materials:low_k ~design ~pairs ()))
    (Ir_ia.Arch.show (Ir_ia.Arch.with_materials arch low_k));
  let faster =
    Ir_ia.Arch.with_design arch (Ir_tech.Design.with_clock design 1e9)
  in
  Alcotest.(check int) "with_design keeps the pair count" 5
    (Ir_ia.Arch.pair_count faster);
  Alcotest.(check string) "with_design = fresh custom at the new design"
    (Ir_ia.Arch.show
       (Ir_ia.Arch.custom ~design:(Ir_tech.Design.with_clock design 1e9)
          ~pairs ()))
    (Ir_ia.Arch.show faster)

let test_via_model () =
  let g = Ir_tech.Geometry.v ~width:(Ir_phys.Units.um 0.2)
      ~spacing:(Ir_phys.Units.um 0.2) ~thickness:(Ir_phys.Units.um 0.3)
      ~via_width:(Ir_phys.Units.um 0.25) () in
  check_close "pad model matches geometry pad"
    (Ir_tech.Geometry.via_area g)
    (Ir_ia.Via_model.blocked_area_per_via Ir_ia.Via_model.Pad g);
  Alcotest.(check bool) "track model is more pessimistic" true
    (Ir_ia.Via_model.ratio g > 1.0);
  let pad = 2.0 *. Ir_phys.Units.um 0.25 in
  check_close "track dilation"
    ((pad +. g.spacing) *. (pad +. Ir_tech.Geometry.pitch g))
    (Ir_ia.Via_model.blocked_area_per_via Ir_ia.Via_model.Track g)

let test_arch_via_model () =
  let arch_pad = Ir_ia.Arch.make ~design () in
  let arch_track =
    Ir_ia.Arch.make ~via_model:Ir_ia.Via_model.Track ~design ()
  in
  let blocked a =
    Ir_ia.Arch.blocked_area a ~pair_index:2 ~wires_above:1000
      ~repeaters_above:100
  in
  Alcotest.(check bool) "track blocks more" true
    (blocked arch_track > blocked arch_pad)

let test_arch_custom () =
  let g = Ir_tech.Geometry.v ~width:(Ir_phys.Units.um 0.3)
      ~spacing:(Ir_phys.Units.um 0.3) ~thickness:(Ir_phys.Units.um 0.5) () in
  let arch =
    Ir_ia.Arch.custom ~design
      ~pairs:
        [ (Ir_tech.Metal_class.Global, g); (Ir_tech.Metal_class.Local, g) ]
      ()
  in
  Alcotest.(check int) "two pairs" 2 (Ir_ia.Arch.pair_count arch);
  Alcotest.(check int) "structure counts derived" 1
    arch.structure.global_pairs;
  check_close "pitch from explicit geometry" (Ir_phys.Units.um 0.6)
    (Ir_ia.Layer_pair.pitch (Ir_ia.Arch.pair arch 0));
  Alcotest.check_raises "empty pairs"
    (Invalid_argument "Arch.custom: architecture has no layer-pairs")
    (fun () -> ignore (Ir_ia.Arch.custom ~design ~pairs:[] ()))

let prop_s_opt_scales_with_k =
  qtest "repeater size scales as sqrt(k)" Helpers.gen_stack (fun stack ->
      let node = Ir_tech.Node.Custom { name = "q"; feature = 130e-9 } in
      let device = Ir_tech.Device.of_node node in
      let mk k =
        Ir_ia.Layer_pair.make ~device ~materials:(Ir_ia.Materials.v ~k ())
          ~node ~cls:Ir_tech.Metal_class.Semi_global stack.semi_global
      in
      let a = mk 3.9 and b = mk 1.95 in
      (* s_opt clamps at 1; skip degenerate cases *)
      a.s_opt <= 1.0 || b.s_opt <= 1.0
      || Float.abs ((a.s_opt /. b.s_opt) -. sqrt 2.0) < 1e-6)

let () =
  Alcotest.run "ia"
    [
      ("materials", [ Alcotest.test_case "basics" `Quick test_materials ]);
      ( "layer pair",
        [
          Alcotest.test_case "derived electricals" `Quick test_layer_pair;
          prop_s_opt_scales_with_k;
        ] );
      ( "arch",
        [
          Alcotest.test_case "structure" `Quick test_arch_structure;
          Alcotest.test_case "validation" `Quick test_arch_validation;
          Alcotest.test_case "blocked area" `Quick test_blocked_area;
          Alcotest.test_case "with_materials/design" `Quick
            test_with_materials;
          Alcotest.test_case "custom pairs" `Quick test_arch_custom;
          Alcotest.test_case "rebind keeps custom pairs" `Quick
            test_rebind_custom;
          Alcotest.test_case "via model in blockage" `Quick
            test_arch_via_model;
        ] );
      ( "via model",
        [ Alcotest.test_case "pad vs track" `Quick test_via_model ] );
    ]
