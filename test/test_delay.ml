(* Tests for the Otten-Brayton delay model, optimal repeater sizing and
   the target-delay requirement models. *)

open Helpers

let device = Ir_tech.Device.of_node Ir_tech.Node.N130

let line =
  (* 130nm semi-global-ish parasitics. *)
  Ir_delay.Model.line ~r_per_m:3.2e5 ~c_per_m:2.2e-10

let mm = Ir_phys.Units.mm

let test_line_validation () =
  Alcotest.check_raises "bad r"
    (Invalid_argument "Model.line: r and c per meter must be > 0") (fun () ->
      ignore (Ir_delay.Model.line ~r_per_m:0.0 ~c_per_m:1e-10))

let test_segment_delay_structure () =
  (* Eq. (2): tau(l) = tau0 + P l + a rc l^2; check the three terms by
     finite differencing. *)
  let s = 50.0 in
  let d0 = Ir_delay.Model.segment_delay device line ~s 0.0 in
  check_close "l=0 leaves the intrinsic term"
    (0.7 *. device.r_o *. (device.c_o +. device.c_p))
    d0;
  let l = mm 1.0 in
  let quad = 0.4 *. 3.2e5 *. 2.2e-10 *. l *. l in
  let lin =
    0.7 *. ((2.2e-10 *. device.r_o /. s) +. (3.2e5 *. device.c_o *. s)) *. l
  in
  check_close "full decomposition" (d0 +. lin +. quad)
    (Ir_delay.Model.segment_delay device line ~s l)

let test_wire_delay_eq3 () =
  (* Eq. (3) equals eta times the segment delay of length l/eta. *)
  let s = 40.0 and l = mm 4.0 in
  let seg = Ir_delay.Model.segment_delay device line ~s (l /. 5.0) in
  check_close "D = eta * tau(l/eta)" (5.0 *. seg)
    (Ir_delay.Model.wire_delay device line ~s ~eta:5 l);
  Alcotest.check_raises "eta 0 rejected"
    (Invalid_argument "Model.wire_delay: eta must be >= 1") (fun () ->
      ignore (Ir_delay.Model.wire_delay device line ~s ~eta:0 l));
  Alcotest.check_raises "negative length rejected"
    (Invalid_argument "Model.wire_delay: negative length") (fun () ->
      ignore (Ir_delay.Model.wire_delay device line ~s ~eta:1 (-1.0)));
  Alcotest.check_raises "negative length rejected by repeaters_needed"
    (Invalid_argument "Model.wire_delay: negative length") (fun () ->
      ignore
        (Ir_delay.Model.repeaters_needed device line ~s ~target:1.0 (-1.0)))

let test_s_opt_formula () =
  check_close "Eq. (4)"
    (sqrt (2.2e-10 *. device.r_o /. (device.c_o *. 3.2e5)))
    (Ir_delay.Model.s_opt device line)

let test_s_opt_minimizes () =
  (* The closed form matches a golden-section search of Eq. (3) in s. *)
  let l = mm 2.0 in
  let f s = Ir_delay.Model.wire_delay device line ~s ~eta:3 l in
  let s_num = Ir_phys.Numeric.golden_min f 1.0 2000.0 in
  let s_cl = Ir_delay.Model.s_opt device line in
  Alcotest.(check bool)
    (Printf.sprintf "closed form %.2f vs numeric %.2f" s_cl s_num)
    true
    (Float.abs (s_cl -. s_num) /. s_cl < 1e-3)

let test_eta_opt_minimizes () =
  let l = mm 3.0 in
  let s = Ir_delay.Model.s_opt device line in
  let eta = Ir_delay.Model.eta_opt device line ~s l in
  let d e = Ir_delay.Model.wire_delay device line ~s ~eta:e l in
  Alcotest.(check bool) "not beaten by neighbors" true
    (d eta <= d (eta + 1) && (eta = 1 || d eta <= d (eta - 1)));
  check_close "min_delay consistent" (d eta)
    (Ir_delay.Model.min_delay device line ~s l)

let test_repeaters_needed () =
  let l = mm 3.0 in
  let s = Ir_delay.Model.s_opt device line in
  let dmin = Ir_delay.Model.min_delay device line ~s l in
  (match
     Ir_delay.Model.repeaters_needed device line ~s ~target:(dmin *. 4.0) l
   with
  | None -> Alcotest.fail "loose target must be feasible"
  | Some eta ->
      let d e = Ir_delay.Model.wire_delay device line ~s ~eta:e l in
      Alcotest.(check bool) "meets" true (d eta <= dmin *. 4.0);
      Alcotest.(check bool) "minimal" true
        (eta = 1 || d (eta - 1) > dmin *. 4.0));
  Alcotest.(check bool) "impossible target" true
    (Ir_delay.Model.repeaters_needed device line ~s ~target:(dmin *. 0.9) l
    = None);
  Alcotest.(check bool) "floor achievable" true
    (Ir_delay.Model.repeaters_needed device line ~s ~target:dmin l <> None)

let prop_delay_convex_in_eta =
  qtest "Eq. (3) is convex in the repeater count"
    QCheck2.Gen.(pair (float_range 0.2 10.0) (int_range 2 60))
    (fun (lmm, eta) ->
      let l = mm lmm in
      let s = Ir_delay.Model.s_opt device line in
      let d e = Ir_delay.Model.wire_delay device line ~s ~eta:e l in
      d eta <= ((d (eta - 1) +. d (eta + 1)) /. 2.0) +. 1e-18)

let prop_repeaters_needed_minimal =
  qtest "repeaters_needed returns the least feasible count"
    QCheck2.Gen.(pair (float_range 0.2 12.0) (float_range 1.0 100.0))
    (fun (lmm, scale) ->
      let l = mm lmm in
      let s = Ir_delay.Model.s_opt device line in
      let target = Ir_delay.Model.min_delay device line ~s l *. scale in
      match Ir_delay.Model.repeaters_needed device line ~s ~target l with
      | None -> false
      | Some eta ->
          Ir_delay.Model.wire_delay device line ~s ~eta l <= target
          && (eta = 1
             || Ir_delay.Model.wire_delay device line ~s ~eta:(eta - 1) l
                > target))

(* Eq. (3) written out as one expression, in the association the model
   uses.  [wire_delay] and [repeaters_needed] share the model's
   hoisted terms, so this test-side copy is what pins their bits. *)
let prop_wire_delay_bits =
  qtest ~count:500 "wire_delay = Eq. (3) written out, bit for bit"
    QCheck2.Gen.(
      triple (float_range 0.001 20.0) (float_range 1.0 200.0)
        (int_range 1 2000))
    (fun (lmm, s, eta) ->
      let l = mm lmm in
      let eta_f = float_of_int eta in
      let eq3 =
        (0.7 *. device.r_o *. (device.c_o +. device.c_p) *. eta_f)
        +. (0.7
            *. ((2.2e-10 *. device.r_o /. s) +. (3.2e5 *. device.c_o *. s))
            *. l)
        +. (0.4 *. 3.2e5 *. 2.2e-10 *. l *. l /. eta_f)
      in
      Int64.equal
        (Int64.bits_of_float eq3)
        (Int64.bits_of_float (Ir_delay.Model.wire_delay device line ~s ~eta l)))

let prop_min_delay_increases_with_rc =
  qtest "min delay increases with line RC"
    QCheck2.Gen.(float_range 0.5 8.0)
    (fun lmm ->
      let l = mm lmm in
      let slow = Ir_delay.Model.line ~r_per_m:6.4e5 ~c_per_m:4.4e-10 in
      let s1 = Ir_delay.Model.s_opt device line in
      let s2 = Ir_delay.Model.s_opt device slow in
      Ir_delay.Model.min_delay device slow ~s:s2 l
      > Ir_delay.Model.min_delay device line ~s:s1 l)

(* ---- Elmore ladder (first-principles check of a and b) ---------------- *)

let test_elmore_distributed_limit () =
  let r = 1e5 and c = 2e-10 in
  let d = Ir_delay.Elmore.ladder_delay ~segments:256 ~r_total:r ~c_total:c () in
  check_close ~eps:1e-9 "converges to rc/2"
    (Ir_delay.Elmore.distributed_limit ~r_total:r ~c_total:c)
    d;
  (* pi-discretization is exact at every N for the bare line *)
  let d4 = Ir_delay.Elmore.ladder_delay ~segments:4 ~r_total:r ~c_total:c () in
  check_close ~eps:1e-9 "exact even at N=4" d d4

let test_elmore_source_term () =
  let r = 1e5 and c = 2e-10 and rs = 3e3 and cl = 5e-14 in
  let with_src =
    Ir_delay.Elmore.ladder_delay ~r_total:r ~c_total:c ~r_source:rs
      ~c_load:cl ()
  in
  let bare = Ir_delay.Elmore.ladder_delay ~r_total:r ~c_total:c () in
  check_close ~eps:1e-9 "source adds R(C + C_L), wire adds r*c_load"
    ((rs *. (c +. cl)) +. (r *. cl))
    (with_src -. bare)

let test_elmore_vs_paper_coefficients () =
  (* The paper's a = 0.4 is the 50%-threshold correction of the
     distributed Elmore delay (0.5 -> 0.4), and b = 0.7 is the lumped
     50% factor ln 2.  Check the constants the delay model inherits. *)
  check_close "a factor" 0.4 Ir_delay.Elmore.threshold_50_factor;
  check_in_range "b factor" ~lo:0.69 ~hi:0.70 Ir_delay.Elmore.lumped_50_factor;
  (* Eq. (2)'s quadratic term equals a/0.5 of the ladder's wire delay. *)
  let device = Ir_tech.Device.of_node Ir_tech.Node.N130 in
  let line = Ir_delay.Model.line ~r_per_m:3.2e5 ~c_per_m:2.2e-10 in
  let l = Ir_phys.Units.mm 2.0 in
  let quad_term =
    Ir_delay.Model.segment_delay device line ~s:1.0 l
    -. Ir_delay.Model.segment_delay device line ~s:1.0 0.0
    -. ((Ir_delay.Model.segment_delay device line ~s:1.0 1e-6
         -. Ir_delay.Model.segment_delay device line ~s:1.0 0.0)
        /. 1e-6 *. l)
  in
  let ladder =
    Ir_delay.Elmore.ladder_delay ~r_total:(3.2e5 *. l)
      ~c_total:(2.2e-10 *. l) ()
  in
  check_close ~eps:1e-3 "quadratic term is 0.8x the Elmore wire delay"
    (0.4 /. 0.5) (quad_term /. ladder)

let test_elmore_validation () =
  Alcotest.check_raises "segments"
    (Invalid_argument "Elmore.ladder_delay: segments < 1") (fun () ->
      ignore
        (Ir_delay.Elmore.ladder_delay ~segments:0 ~r_total:1.0 ~c_total:1.0
           ()));
  Alcotest.check_raises "negative"
    (Invalid_argument "Elmore.ladder_delay: negative value") (fun () ->
      ignore
        (Ir_delay.Elmore.ladder_delay ~r_total:(-1.0) ~c_total:1.0 ()))

let prop_elmore_monotone =
  qtest "ladder delay increases with every element"
    QCheck2.Gen.(
      quad (float_range 1e3 1e6) (float_range 1e-12 1e-9)
        (float_range 0.0 1e4) (float_range 0.0 1e-13))
    (fun (r, c, rs, cl) ->
      let d = Ir_delay.Elmore.ladder_delay ~r_total:r ~c_total:c
          ~r_source:rs ~c_load:cl () in
      let bigger = Ir_delay.Elmore.ladder_delay ~r_total:(r *. 1.5)
          ~c_total:c ~r_source:rs ~c_load:cl () in
      bigger > d && d > 0.0)

(* ---- target models ---------------------------------------------------- *)

let test_target_linear () =
  let d = Ir_delay.Target.delay Linear ~clock:5e8 ~l_max:1.0 in
  check_close "longest wire gets the period" 2e-9 (d 1.0);
  check_close "half" 1e-9 (d 0.5);
  check_close "zero" 0.0 (d 0.0)

let test_target_affine () =
  let floor = 5e-11 in
  let d = Ir_delay.Target.delay (Affine { floor }) ~clock:5e8 ~l_max:1.0 in
  check_close "floor at zero" floor (d 0.0);
  check_close "period at l_max" 2e-9 (d 1.0)

let test_target_quadratic () =
  let d =
    Ir_delay.Target.delay (Quadratic_blend { weight = 1.0 }) ~clock:5e8
      ~l_max:1.0
  in
  check_close "quadratic half" (2e-9 *. 0.25) (d 0.5);
  check_close "period at l_max" 2e-9 (d 1.0);
  let half =
    Ir_delay.Target.delay (Quadratic_blend { weight = 0.5 }) ~clock:5e8
      ~l_max:1.0 0.5
  in
  check_close "blend" (2e-9 *. ((0.5 *. 0.5) +. (0.5 *. 0.25))) half

let test_target_validation () =
  Alcotest.check_raises "l beyond l_max"
    (Invalid_argument "Target.delay: length outside [0, l_max]") (fun () ->
      ignore (Ir_delay.Target.delay Linear ~clock:5e8 ~l_max:1.0 1.1));
  Alcotest.check_raises "bad floor"
    (Invalid_argument "Target.delay: floor must lie in [0, period)")
    (fun () ->
      ignore
        (Ir_delay.Target.delay (Affine { floor = 1.0 }) ~clock:5e8 ~l_max:1.0
           0.5))

let test_target_monotone () =
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Format.asprintf "%a monotone" Ir_delay.Target.pp m)
        true
        (Ir_delay.Target.monotone_check m ~clock:5e8 ~l_max:3.6e-3))
    [
      Ir_delay.Target.Linear;
      Affine { floor = 1e-10 };
      Quadratic_blend { weight = 0.3 };
      Quadratic_blend { weight = 1.0 };
    ]

let prop_quadratic_harder_for_short =
  qtest "quadratic targets are tighter than linear below l_max"
    QCheck2.Gen.(float_range 0.01 0.99)
    (fun x ->
      let lin = Ir_delay.Target.delay Linear ~clock:5e8 ~l_max:1.0 x in
      let quad =
        Ir_delay.Target.delay (Quadratic_blend { weight = 1.0 }) ~clock:5e8
          ~l_max:1.0 x
      in
      quad < lin)

let () =
  Alcotest.run "delay"
    [
      ( "model",
        [
          Alcotest.test_case "line validation" `Quick test_line_validation;
          Alcotest.test_case "segment delay (Eq 2)" `Quick
            test_segment_delay_structure;
          Alcotest.test_case "wire delay (Eq 3)" `Quick test_wire_delay_eq3;
          Alcotest.test_case "s_opt formula (Eq 4)" `Quick test_s_opt_formula;
          Alcotest.test_case "s_opt minimizes" `Quick test_s_opt_minimizes;
          Alcotest.test_case "eta_opt minimizes" `Quick test_eta_opt_minimizes;
          Alcotest.test_case "repeaters_needed" `Quick test_repeaters_needed;
          prop_delay_convex_in_eta;
          prop_repeaters_needed_minimal;
          prop_wire_delay_bits;
          prop_min_delay_increases_with_rc;
        ] );
      ( "elmore",
        [
          Alcotest.test_case "distributed limit" `Quick
            test_elmore_distributed_limit;
          Alcotest.test_case "source term" `Quick test_elmore_source_term;
          Alcotest.test_case "paper coefficients" `Quick
            test_elmore_vs_paper_coefficients;
          Alcotest.test_case "validation" `Quick test_elmore_validation;
          prop_elmore_monotone;
        ] );
      ( "target",
        [
          Alcotest.test_case "linear (paper)" `Quick test_target_linear;
          Alcotest.test_case "affine" `Quick test_target_affine;
          Alcotest.test_case "quadratic blend" `Quick test_target_quadratic;
          Alcotest.test_case "validation" `Quick test_target_validation;
          Alcotest.test_case "monotone" `Quick test_target_monotone;
          prop_quadratic_harder_for_short;
        ] );
    ]
