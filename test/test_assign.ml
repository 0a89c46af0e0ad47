(* Tests for the assignment substrate: Problem tables, Pair_fill
   (Algorithm 4) and Greedy_fill (Algorithm 5). *)

open Helpers

module P = Ir_assign.Problem
module GF = Ir_assign.Greedy_fill
module PF = Ir_assign.Pair_fill
module SF = Ir_assign.Suffix_fit

(* A small deterministic instance: 130nm stack, 6 single-wire bunches. *)
let fixed_instance ?(clock = 5e8) ?(fraction = 0.4) ?(gates = 5_000) () =
  let design =
    Ir_tech.Design.v ~node:Ir_tech.Node.N130 ~gates ~clock
      ~repeater_fraction:fraction ()
  in
  let arch = Ir_ia.Arch.make ~design () in
  let lengths = [ 2.0e-4; 1.5e-4; 1.0e-4; 5.0e-5; 2.0e-5; 1.0e-5 ] in
  let bunches =
    Array.of_list
      (List.map (fun l -> { Ir_wld.Dist.length = l; count = 1 }) lengths)
  in
  P.of_bunches ~arch ~bunches ()

let test_problem_dimensions () =
  let p = fixed_instance () in
  Alcotest.(check int) "bunches" 6 (P.n_bunches p);
  Alcotest.(check int) "pairs" 4 (P.n_pairs p);
  Alcotest.(check int) "wires" 6 (P.total_wires p);
  Alcotest.(check int) "wires_before 0" 0 (P.wires_before p 0);
  Alcotest.(check int) "wires_before end" 6 (P.wires_before p 6);
  check_close "longest bunch" 2.0e-4 (P.bunch_length p 0);
  Alcotest.(check int) "count" 1 (P.bunch_count p 3)

let test_problem_targets () =
  let p = fixed_instance ~clock:5e8 () in
  (* d_i = (l / l_max) / f_c *)
  check_close "longest gets the period" 2e-9 (P.target p 0);
  check_close "proportional" (2e-9 *. (1.0e-4 /. 2.0e-4)) (P.target p 2)

let test_problem_interval_area () =
  let p = fixed_instance () in
  let pair = Ir_ia.Arch.pair (P.arch p) 1 in
  let expected =
    (2.0e-4 +. 1.5e-4) *. Ir_ia.Layer_pair.pitch pair
  in
  check_close "interval [0,2) on pair 1" expected
    (P.interval_area p ~pair:1 ~lo:0 ~hi:2);
  check_close "empty interval" 0.0 (P.interval_area p ~pair:1 ~lo:3 ~hi:3)

let test_problem_meeting_cost () =
  let p = fixed_instance () in
  (* meeting_cost over an interval = sum of per-bunch minimal costs. *)
  match
    ( P.meeting_cost p ~pair:1 ~lo:0 ~hi:2,
      P.eta_min p ~pair:1 ~bunch:0,
      P.eta_min p ~pair:1 ~bunch:1 )
  with
  | Some (area, count), Some e0, Some e1 ->
      let pair = Ir_ia.Arch.pair (P.arch p) 1 in
      Alcotest.(check int) "count is sum of etas" (e0 + e1) count;
      check_close "area is count * unit"
        (float_of_int (e0 + e1) *. pair.Ir_ia.Layer_pair.repeater_area)
        area
  | _ -> Alcotest.fail "expected feasible meeting costs on pair 1"

let test_problem_delay_consistency () =
  let p = fixed_instance () in
  (* eta_min really is minimal w.r.t. the exposed delay evaluator. *)
  for j = 0 to P.n_pairs p - 1 do
    for b = 0 to P.n_bunches p - 1 do
      match P.eta_min p ~pair:j ~bunch:b with
      | None -> ()
      | Some eta ->
          let l = P.bunch_length p b in
          let d = P.wire_delay_on_pair p ~pair:j ~eta l in
          Alcotest.(check bool)
            (Printf.sprintf "pair %d bunch %d meets" j b)
            true
            (d <= P.target p b);
          if eta > 1 then
            Alcotest.(check bool)
              (Printf.sprintf "pair %d bunch %d minimal" j b)
              true
              (P.wire_delay_on_pair p ~pair:j ~eta:(eta - 1) l > P.target p b)
    done
  done

let test_problem_validation () =
  let design = Ir_tech.Design.v ~node:Ir_tech.Node.N130 ~gates:1000 () in
  let arch = Ir_ia.Arch.make ~design () in
  Alcotest.check_raises "unsorted bunches"
    (Invalid_argument "Problem: bunches must be sorted by non-increasing length")
    (fun () ->
      ignore
        (P.of_bunches ~arch
           ~bunches:
             [|
               { Ir_wld.Dist.length = 1.0e-5; count = 1 };
               { Ir_wld.Dist.length = 2.0e-5; count = 1 };
             |]
           ()));
  Alcotest.check_raises "empty" (Invalid_argument "Problem: empty instance")
    (fun () -> ignore (P.of_bunches ~arch ~bunches:[||] ()))

(* An infinite length used to pass the [length > 0] test: its routing
   area was infinite, [interval_area] returned inf - inf = NaN, and the
   rank came out unassignable through NaN comparisons instead of a named
   error. *)
let test_problem_infinite_length () =
  let design = Ir_tech.Design.v ~node:Ir_tech.Node.N130 ~gates:1000 () in
  let arch = Ir_ia.Arch.make ~design () in
  Alcotest.check_raises "of_bunches"
    (Invalid_argument "Problem: infinite bunch length") (fun () ->
      ignore
        (P.of_bunches ~arch
           ~bunches:
             [|
               { Ir_wld.Dist.length = infinity; count = 1 };
               { Ir_wld.Dist.length = 1.0e-5; count = 2 };
             |]
           ()));
  (* [make] takes a distribution, which cannot hold an infinite length
     any more: the conversion to meters re-validates it too. *)
  Alcotest.check_raises "make"
    (Invalid_argument "Dist.of_bins: lengths must be finite") (fun () ->
      ignore
        (P.make ~arch
           ~wld:
             (Ir_wld.Dist.map_length
                (fun l -> l *. infinity)
                (Ir_wld.Dist.of_bins [ { Ir_wld.Dist.length = 2.0; count = 4 } ]))
           ()))

(* Finite lengths whose routing areas sum past [max_float] gave the same
   NaN interval areas, and the rank came out unassignable. *)
let test_problem_area_overflow () =
  let design = Ir_tech.Design.v ~node:Ir_tech.Node.N130 ~gates:1000 () in
  let arch = Ir_ia.Arch.make ~design () in
  Alcotest.check_raises "of_bunches"
    (Invalid_argument "Problem: total routing area overflows") (fun () ->
      ignore
        (P.of_bunches ~arch
           ~bunches:
             [|
               { Ir_wld.Dist.length = 1e308; count = 1_000_000_000 };
               { Ir_wld.Dist.length = 1e308; count = 1_000_000_000 };
               { Ir_wld.Dist.length = 1.0e-5; count = 1 };
             |]
           ()))

let test_pair_fill_basic () =
  let p = fixed_instance () in
  let budget = P.budget p in
  (match
     PF.assign p ~pair:1 ~prefix_wires:0 ~reps_above:0 ~meet_lo:0 ~meet_hi:2
       ~extra_hi:3 ~rep_budget:budget
   with
  | None -> Alcotest.fail "assignment should fit"
  | Some res ->
      Alcotest.(check bool) "positive repeater count" true (res.rep_count >= 2);
      check_close "routing area matches interval"
        (P.interval_area p ~pair:1 ~lo:0 ~hi:3)
        res.routing_area);
  (* Zero budget cannot meet targets that need repeaters. *)
  Alcotest.(check bool) "zero budget fails" true
    (PF.assign p ~pair:1 ~prefix_wires:0 ~reps_above:0 ~meet_lo:0 ~meet_hi:2
       ~extra_hi:2 ~rep_budget:0.0
    = None)

let test_pair_fill_capacity () =
  let p = fixed_instance ~gates:30 () in
  (* With an almost-zero die, the six wires overflow the pair. *)
  Alcotest.(check bool) "tiny die rejects wires" true
    (PF.assign p ~pair:0 ~prefix_wires:0 ~reps_above:0 ~meet_lo:0 ~meet_hi:0
       ~extra_hi:6 ~rep_budget:(P.budget p)
    = None)

let test_pair_fill_validation () =
  let p = fixed_instance () in
  Alcotest.check_raises "bad ranges"
    (Invalid_argument "Pair_fill.assign: malformed bunch ranges") (fun () ->
      ignore
        (PF.assign p ~pair:0 ~prefix_wires:0 ~reps_above:0 ~meet_lo:2
           ~meet_hi:1 ~extra_hi:3 ~rep_budget:0.0))

let test_greedy_fill_all () =
  let p = fixed_instance () in
  (* The whole WLD fits from the top pair (Definition 3 feasibility). *)
  (match GF.pack p (GF.context ~from_bunch:0 ~top_pair:0 ()) with
  | None -> Alcotest.fail "baseline instance must be assignable"
  | Some placements ->
      let wires =
        List.fold_left (fun a pl -> a + pl.GF.wires) 0 placements
      in
      Alcotest.(check int) "all wires placed" 6 wires;
      (* Bottom-up: placements are reported bottom pair first. *)
      (match placements with
      | first :: _ ->
          Alcotest.(check int) "starts at bottom pair" (P.n_pairs p - 1)
            first.GF.pair
      | [] -> Alcotest.fail "no placements"));
  Alcotest.(check bool) "fits agrees with pack" true
    (GF.fits p (GF.context ~from_bunch:0 ~top_pair:0 ()))

let test_greedy_fill_empty_suffix () =
  let p = fixed_instance () in
  Alcotest.(check bool) "empty suffix trivially fits" true
    (GF.fits p (GF.context ~from_bunch:(P.n_bunches p) ~top_pair:0 ()))

let test_greedy_fill_blockage_sensitivity () =
  let p = fixed_instance ~gates:700 () in
  (* On a small die, saturating the pair with used area must flip the
     verdict. *)
  let free = GF.fits p (GF.context ~from_bunch:0 ~top_pair:0 ()) in
  let cap = P.capacity p in
  let squeezed =
    GF.fits p
      (GF.context ~top_pair_used:(0.99 *. cap) ~from_bunch:0 ~top_pair:0 ())
  in
  Alcotest.(check bool) "squeezing the top pair can only hurt" true
    ((not squeezed) || free)

let test_greedy_fill_ordering () =
  let p = fixed_instance () in
  (* Shortest wires land lowest: bunch 5 (shortest) goes to the bottom
     pair in a roomy instance. *)
  match GF.pack p (GF.context ~from_bunch:0 ~top_pair:0 ()) with
  | None -> Alcotest.fail "must fit"
  | Some placements ->
      let bottom = P.n_pairs p - 1 in
      let of_shortest =
        List.filter (fun pl -> pl.GF.bunch = 5) placements
      in
      Alcotest.(check bool) "shortest on bottom pair" true
        (List.for_all (fun pl -> pl.GF.pair = bottom) of_shortest)

(* ---- rescale-reuse constructors --------------------------------------- *)

(* Rebuild a problem from scratch with the given design knobs, keeping the
   same bunches — the reference the reuse paths must match exactly. *)
let rebuild_like problem ~clock ~fraction =
  let arch = P.arch problem in
  let design = Ir_tech.Design.with_clock arch.Ir_ia.Arch.design clock in
  let design = Ir_tech.Design.with_repeater_fraction design fraction in
  let arch = Ir_ia.Arch.with_design arch design in
  let bunches =
    Array.init (P.n_bunches problem) (fun b ->
        { Ir_wld.Dist.length = P.bunch_length problem b;
          count = P.bunch_count problem b })
  in
  P.of_bunches ~arch ~bunches ()

let check_problems_agree label a b =
  Alcotest.(check int) (label ^ ": bunches") (P.n_bunches a) (P.n_bunches b);
  check_close (label ^ ": budget") (P.budget a) (P.budget b);
  check_close (label ^ ": capacity") (P.capacity a) (P.capacity b);
  for bn = 0 to P.n_bunches a - 1 do
    check_close
      (Printf.sprintf "%s: target %d" label bn)
      (P.target a bn) (P.target b bn)
  done;
  for j = 0 to P.n_pairs a - 1 do
    for bn = 0 to P.n_bunches a - 1 do
      Alcotest.(check (option int))
        (Printf.sprintf "%s: eta pair %d bunch %d" label j bn)
        (P.eta_min a ~pair:j ~bunch:bn)
        (P.eta_min b ~pair:j ~bunch:bn)
    done;
    for lo = 0 to P.n_bunches a do
      for hi = lo to P.n_bunches a do
        match
          (P.meeting_cost a ~pair:j ~lo ~hi, P.meeting_cost b ~pair:j ~lo ~hi)
        with
        | None, None -> ()
        | Some (_, ca), Some (_, cb) ->
            Alcotest.(check int)
              (Printf.sprintf "%s: count pair %d [%d,%d)" label j lo hi)
              ca cb
        | _ ->
            Alcotest.failf "%s: feasibility differs on pair %d [%d,%d)" label
              j lo hi
      done
    done
  done

let test_with_repeater_fraction () =
  let p = fixed_instance ~fraction:0.4 () in
  let rescaled = P.with_repeater_fraction p 0.1 in
  let fresh =
    rebuild_like p ~clock:(P.arch p).Ir_ia.Arch.design.Ir_tech.Design.clock
      ~fraction:0.1
  in
  check_problems_agree "fraction 0.4 -> 0.1" fresh rescaled;
  check_close "budget scaled by 1/4" (P.budget p /. 4.0) (P.budget rescaled);
  (* The original is untouched (fresh immutable value). *)
  check_close "original budget intact"
    (P.budget (fixed_instance ~fraction:0.4 ()))
    (P.budget p);
  Alcotest.check_raises "fraction out of range"
    (Invalid_argument "Design.v: repeater_fraction must lie in [0, 1]")
    (fun () -> ignore (P.with_repeater_fraction p 1.5))

let test_with_clock () =
  let p = fixed_instance ~clock:5e8 () in
  let rescaled = P.with_clock p 1e9 in
  let fresh = rebuild_like p ~clock:1e9 ~fraction:0.4 in
  check_problems_agree "clock 0.5 -> 1 GHz" fresh rescaled;
  (* Doubling the clock halves every target. *)
  check_close "target halves" (P.target p 0 /. 2.0) (P.target rescaled 0)

let prop_rescale_paths_match_rebuild =
  qtest ~count:40 "rescale-reuse constructors match full rebuilds"
    Helpers.gen_instance (fun { problem; label } ->
      let clock =
        (P.arch problem).Ir_ia.Arch.design.Ir_tech.Design.clock *. 1.7
      in
      let a = P.with_clock problem clock in
      let b = rebuild_like problem ~clock ~fraction:0.2 in
      let b = P.with_repeater_fraction b 0.2 in
      (* Compare via the DP-visible quantities on a coarse probe. *)
      let a = P.with_repeater_fraction a 0.2 in
      let ok = ref true in
      for j = 0 to P.n_pairs a - 1 do
        for bn = 0 to P.n_bunches a - 1 do
          if P.eta_min a ~pair:j ~bunch:bn <> P.eta_min b ~pair:j ~bunch:bn
          then ok := false
        done
      done;
      if (not !ok) || Float.abs (P.budget a -. P.budget b) > 1e-18 then
        QCheck2.Test.fail_reportf "%s" label
      else true)

(* Regression for the float-truncation bug: repeater counts are exact
   integers, so meeting-cost counts must be exactly additive over interval
   splits (int_of_float on differenced float prefixes broke this). *)
let prop_meeting_cost_additive =
  qtest ~count:60 "meeting-cost counts are exactly additive"
    Helpers.gen_instance (fun { problem; label } ->
      let n = P.n_bunches problem in
      let ok = ref true in
      for j = 0 to P.n_pairs problem - 1 do
        for mid = 0 to n do
          match
            ( P.meeting_cost problem ~pair:j ~lo:0 ~hi:n,
              P.meeting_cost problem ~pair:j ~lo:0 ~hi:mid,
              P.meeting_cost problem ~pair:j ~lo:mid ~hi:n )
          with
          | Some (_, whole), Some (_, left), Some (_, right) ->
              if whole <> left + right then ok := false
          | _ -> ()
        done
      done;
      if not !ok then QCheck2.Test.fail_reportf "%s: counts not additive" label
      else true)

let prop_greedy_fill_monotone_budget =
  qtest ~count:60 "relaxing blockage never breaks a fitting pack"
    Helpers.gen_instance (fun { problem; label } ->
      let tight =
        GF.fits problem
          (GF.context ~wires_above_top:50 ~reps_above_top:500
             ~wires_above_below:50 ~reps_above_below:500 ~from_bunch:0
             ~top_pair:0 ())
      in
      let loose = GF.fits problem (GF.context ~from_bunch:0 ~top_pair:0 ()) in
      if tight && not loose then QCheck2.Test.fail_reportf "%s" label
      else true)

let prop_greedy_fill_suffix_monotone =
  qtest ~count:60 "smaller suffixes keep fitting"
    Helpers.gen_instance (fun { problem; label } ->
      let fits_from i =
        GF.fits problem (GF.context ~from_bunch:i ~top_pair:0 ())
      in
      let n = P.n_bunches problem in
      let ok = ref true in
      for i = 0 to n - 1 do
        if fits_from i && not (fits_from (i + 1)) then ok := false
      done;
      if not !ok then QCheck2.Test.fail_reportf "%s" label else true)

let test_greedy_fill_fast_fail () =
  (* Tiny die, only the bottom pair available and 90% of it already
     consumed: the suffix demand exceeds the remaining capacity, so the
     O(pairs) screen must reject before the packing loop runs — and the
     screened verdict is the packing verdict. *)
  let p = fixed_instance ~gates:30 () in
  let ctx =
    GF.context ~from_bunch:0 ~top_pair:(P.n_pairs p - 1)
      ~top_pair_used:(0.9 *. P.capacity p) ()
  in
  let fails () =
    Option.value ~default:0
      (Ir_obs.find_counter (Ir_obs.snapshot ()) "greedy_fill/fast_fails")
  in
  let before = fails () in
  Alcotest.(check bool) "squeezed bottom pair cannot pack" false
    (GF.fits p ctx);
  Alcotest.(check bool) "capacity screen fired" true (fails () > before);
  Alcotest.(check bool) "pack agrees" true (GF.pack p ctx = None)

(* ---- staged packer against the array-based one ------------------------- *)

(* The packer before the staged cursor, kept as the reference: an
   O(bunches) [remaining] array filled per call, and every pair packed
   bottom-up on every call.  Besides the verdict and the placements it
   reports what the counters see: whether the capacity screen or the
   early exit fired, the wires packed, and how many of them landed below
   the top pair. *)
type reference = {
  r_placements : GF.placement list option;
  r_fast_fail : bool;
  r_early : bool;
  r_packed : int;
  r_packed_below : int;
}

let reference_pack t (ctx : GF.context) =
  if GF.fast_reject t ctx then
    {
      r_placements = None;
      r_fast_fail = true;
      r_early = false;
      r_packed = 0;
      r_packed_below = 0;
    }
  else begin
    let n = P.n_bunches t and m = P.n_pairs t in
    let cap = P.capacity t in
    let arch = P.arch t in
    let v = arch.Ir_ia.Arch.vias_per_wire in
    let total_suffix = P.total_wires t - P.wires_before t ctx.from_bunch in
    let remaining = Array.init n (P.bunch_count t) in
    for b = 0 to ctx.from_bunch - 1 do
      remaining.(b) <- 0
    done;
    let placements = ref [] in
    let next = ref (n - 1) in
    let packed_total = ref 0 in
    let early = ref false in
    let exception Done of bool in
    let ok =
      try
        let q = ref (m - 1) in
        while !q >= ctx.top_pair do
          while !next >= ctx.from_bunch && remaining.(!next) = 0 do
            decr next
          done;
          if !next < ctx.from_bunch then begin
            early := true;
            raise (Done true)
          end;
          let pair = Ir_ia.Arch.pair arch !q in
          let via = pair.Ir_ia.Layer_pair.via_area in
          let at_top = !q = ctx.top_pair in
          let base_wires =
            if at_top then ctx.wires_above_top else ctx.wires_above_below
          in
          let reps =
            if at_top then ctx.reps_above_top else ctx.reps_above_below
          in
          let cap_q = if at_top then cap -. ctx.top_pair_used else cap in
          let a_w = ref 0.0 in
          let continue_pair = ref true in
          while !continue_pair && !next >= ctx.from_bunch do
            if remaining.(!next) = 0 then decr next
            else begin
              let b = !next in
              let wire_area =
                P.bunch_length t b *. Ir_ia.Layer_pair.pitch pair
              in
              let suffix_above = total_suffix - !packed_total in
              let take =
                GF.max_take ~cap:cap_q ~a_w:!a_w ~wire_area ~via ~v
                  ~base_wires ~reps ~suffix_above ~available:remaining.(b)
              in
              if take > 0 then begin
                remaining.(b) <- remaining.(b) - take;
                packed_total := !packed_total + take;
                a_w := !a_w +. (float_of_int take *. wire_area);
                placements :=
                  { GF.pair = !q; bunch = b; wires = take } :: !placements
              end;
              if remaining.(b) > 0 then continue_pair := false
            end
          done;
          decr q
        done;
        while !next >= ctx.from_bunch && remaining.(!next) = 0 do
          decr next
        done;
        raise (Done (!next < ctx.from_bunch))
      with Done ok -> ok
    in
    {
      r_placements = (if ok then Some (List.rev !placements) else None);
      r_fast_fail = false;
      r_early = !early;
      r_packed = !packed_total;
      r_packed_below =
        List.fold_left
          (fun acc (pl : GF.placement) ->
            if pl.pair > ctx.top_pair then acc + pl.wires else acc)
          0 !placements;
    }
  end

(* A random instance with several wires per bunch, so a bunch can be
   split across pairs and the cursor's partly packed bunch matters. *)
let gen_multiwire_instance =
  let open QCheck2.Gen in
  let* { problem; label } =
    Helpers.gen_instance_of ~pairs:(int_range 1 4)
  in
  let n = P.n_bunches problem in
  let* counts = array_repeat n (int_range 1 6) in
  let bunches =
    Array.init n (fun b ->
        { Ir_wld.Dist.length = P.bunch_length problem b; count = counts.(b) })
  in
  return
    {
      problem = P.of_bunches ~arch:(P.arch problem) ~bunches ();
      label =
        Printf.sprintf "%s counts=[%s]" label
          (String.concat ";" (Array.to_list (Array.map string_of_int counts)));
    }

(* The area already used on the top pair: a fraction of the capacity,
   or [Edge r]: [r] via stacks short of the largest used area at which
   the reference still fits.  Near that edge the top pair's verdict
   turns on a few wires' blockage, so a resumed pack that miscounts the
   suffix wires above the top pair gets it wrong. *)
type used = Frac of float | Edge of float

(* One step of a probe sequence: a new load on the top pair (the
   below-stage fields stay, so the arena should hit), a new value for one
   below-stage field (0 [from_bunch], 1 [top_pair], 2
   [wires_above_below], 3 [reps_above_below]), or the other problem.
   Both of the last two must miss. *)
type step =
  | Top of used * int * int
  | Rekey of int * int
  | Switch

let gen_step =
  let open QCheck2.Gen in
  frequency
    [
      ( 6,
        let* used =
          oneof
            [
              map (fun f -> Frac f) (float_range 0.0 1.0);
              map (fun r -> Edge r) (float_range 0.0 3.0);
            ]
        in
        let* wt = int_range 0 40 in
        let* rt = int_range 0 400 in
        return (Top (used, wt, rt)) );
      ( 3,
        let* field = int_range 0 3 in
        let* raw = int_range 0 1000 in
        return (Rekey (field, raw)) );
      (1, return Switch);
    ]

let greedy_counter name = Ir_obs.counter ("greedy_fill/" ^ name)

let prop_staged_pack_matches_reference =
  let open QCheck2.Gen in
  let gen =
    let* a = gen_multiwire_instance in
    let* b = gen_multiwire_instance in
    let* steps = list_size (int_range 1 40) gen_step in
    return (a, b, steps)
  in
  let names = [ "calls"; "fast_fails"; "early_exits"; "below_hits"; "wires_packed" ] in
  let counters = List.map greedy_counter names in
  let read () = List.map Ir_obs.value counters in
  qtest ~count:200 "staged packer matches the array-based packer" gen
    (fun (a, b, steps) ->
      let problems = [| a; b |] in
      let arena = Ir_assign.Scratch.create () in
      (* Raw field values, reduced into each problem's ranges on use, so a
         switch can land on the same numeric key in the other problem. *)
      let pi = ref 0 and from_raw = ref 0 and top_raw = ref 1000 in
      let wb = ref 0 and rb = ref 0 in
      let used = ref (Frac 0.0) and wt = ref 0 and rt = ref 0 in
      let last_key = ref None in
      let check ({ problem; label } : instance) =
        let n = P.n_bunches problem and m = P.n_pairs problem in
        let from_bunch = !from_raw mod (n + 1) and top_pair = !top_raw mod m in
        let ctx top_pair_used =
          GF.context ~top_pair_used ~wires_above_top:!wt ~reps_above_top:!rt
            ~wires_above_below:!wb ~reps_above_below:!rb ~from_bunch ~top_pair
            ()
        in
        let cap = P.capacity problem in
        let top_pair_used =
          match !used with
          | Frac f -> f *. cap
          | Edge r ->
              let fits u = (reference_pack problem (ctx u)).r_placements <> None in
              let lo = ref 0.0 and hi = ref cap in
              for _ = 1 to 80 do
                let mid = 0.5 *. (!lo +. !hi) in
                if fits mid then lo := mid else hi := mid
              done;
              let arch = P.arch problem in
              let via =
                (Ir_ia.Arch.pair arch top_pair).Ir_ia.Layer_pair.via_area
                *. float_of_int arch.Ir_ia.Arch.vias_per_wire
              in
              Float.max 0.0 (!lo -. (r *. via))
        in
        let ctx = ctx top_pair_used in
        let r = reference_pack problem ctx in
        let key = (!pi, from_bunch, top_pair, !wb, !rb) in
        let hit = (not r.r_fast_fail) && !last_key = Some key in
        if not r.r_fast_fail then last_key := Some key;
        let expect ~hit =
          [
            1;
            Bool.to_int r.r_fast_fail;
            Bool.to_int r.r_early;
            Bool.to_int hit;
            (if hit then r.r_packed - r.r_packed_below else r.r_packed);
          ]
        in
        let measure f =
          let before = read () in
          let v = f () in
          (v, List.map2 ( - ) (read ()) before)
        in
        let fits, d_fits =
          measure (fun () -> GF.fits ~scratch:arena problem ctx)
        in
        let placements, d_pack = measure (fun () -> GF.pack problem ctx) in
        let show d = String.concat "," (List.map string_of_int d) in
        let where =
          Printf.sprintf "%s: fb=%d tp=%d used=%.17g wt=%d rt=%d wb=%d rb=%d"
            label from_bunch top_pair top_pair_used !wt !rt !wb !rb
        in
        if fits <> Option.is_some r.r_placements then
          QCheck2.Test.fail_reportf "%s: fits %b, reference %b" where fits
            (not fits)
        else if not (Option.equal (List.equal GF.equal_placement) placements
                       r.r_placements)
        then QCheck2.Test.fail_reportf "%s: pack placements differ" where
        else if d_fits <> expect ~hit then
          QCheck2.Test.fail_reportf "%s: fits counters (%s) <> expected (%s)"
            where (show d_fits) (show (expect ~hit))
        else if d_pack <> expect ~hit:false then
          QCheck2.Test.fail_reportf "%s: pack counters (%s) <> expected (%s)"
            where (show d_pack) (show (expect ~hit:false))
        else true
      in
      ignore (check problems.(0));
      List.for_all
        (fun step ->
          (match step with
          | Top (u, w, r) ->
              used := u;
              wt := w;
              rt := r
          | Rekey (0, raw) -> from_raw := raw
          | Rekey (1, raw) -> top_raw := raw
          | Rekey (2, raw) -> wb := raw mod 200
          | Rekey (_, raw) -> rb := raw
          | Switch -> pi := 1 - !pi);
          check problems.(!pi))
        steps)

(* ---- memoized suffix-fit ----------------------------------------------- *)

let sf_query sf problem ~from_bunch ~top_pair ~top_pair_used ~wt ~rt ~wb ~rb =
  let memo =
    SF.fits sf ~from_bunch ~top_pair ~top_pair_used ~wires_above_top:wt
      ~reps_above_top:rt ~wires_above_below:wb ~reps_above_below:rb
  in
  let oracle =
    GF.fits problem
      (GF.context ~top_pair_used ~wires_above_top:wt ~reps_above_top:rt
         ~wires_above_below:wb ~reps_above_below:rb ~from_bunch ~top_pair ())
  in
  (memo, oracle)

let prop_suffix_fit_matches_oracle =
  let open QCheck2.Gen in
  let gen_ctx =
    let* fb = int_range 0 1000 in
    let* tp = int_range 0 1000 in
    let* usedf = float_range 0.0 1.1 in
    let* wt = int_range 0 200 in
    let* rt = int_range 0 2000 in
    let* wb = int_range 0 200 in
    let* rb = int_range 0 2000 in
    return (fb, tp, usedf, wt, rt, wb, rb)
  in
  let gen =
    let* inst = Helpers.gen_instance in
    let* ctxs = list_size (int_range 1 40) gen_ctx in
    return (inst, ctxs)
  in
  qtest ~count:80 "memoized suffix-fit matches the greedy-fill oracle" gen
    (fun ({ problem; label }, ctxs) ->
      let sf = SF.create problem in
      let n = P.n_bunches problem and m = P.n_pairs problem in
      let cap = P.capacity problem in
      (* Replay the whole sequence twice: the second pass answers mostly
         from the frontiers the first pass populated, so both the miss
         and the dominance-hit paths are compared against the oracle. *)
      List.for_all
        (fun (fb, tp, usedf, wt, rt, wb, rb) ->
          let from_bunch = fb mod (n + 1) and top_pair = tp mod m in
          let top_pair_used = usedf *. cap in
          let memo, oracle =
            sf_query sf problem ~from_bunch ~top_pair ~top_pair_used ~wt ~rt
              ~wb ~rb
          in
          if memo <> oracle then
            QCheck2.Test.fail_reportf
              "%s: memo=%b oracle=%b at fb=%d tp=%d used=%.6g wt=%d rt=%d \
               wb=%d rb=%d"
              label memo oracle from_bunch top_pair top_pair_used wt rt wb rb
          else true)
        (ctxs @ ctxs))

let test_suffix_fit_frozen_replay () =
  (* Deterministic hit-path coverage on the frozen instances (roomy,
     blockage-sensitive, and overloaded): a ladder of progressively harder
     contexts, replayed, must answer identically to the oracle throughout,
     and the replay pass must be served by the frontiers. *)
  let ladder =
    [
      (0, 0, 0.00, 0, 0, 0, 0);
      (0, 0, 0.30, 2, 10, 2, 10);
      (0, 0, 0.60, 5, 50, 5, 50);
      (0, 0, 0.99, 8, 200, 8, 200);
      (2, 0, 0.50, 3, 20, 3, 20);
    ]
  in
  let hits () =
    Option.value ~default:0
      (Ir_obs.find_counter (Ir_obs.snapshot ()) "suffix_fit/hits")
  in
  List.iter
    (fun (name, p) ->
      let sf = SF.create p in
      let cap = P.capacity p in
      let before = hits () in
      List.iter
        (fun (fb, tp, usedf, wt, rt, wb, rb) ->
          let memo, oracle =
            sf_query sf p ~from_bunch:fb ~top_pair:tp
              ~top_pair_used:(usedf *. cap) ~wt ~rt ~wb ~rb
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: memo = oracle at used=%.2f wt=%d" name usedf
               wt)
            oracle memo)
        (ladder @ ladder);
      Alcotest.(check bool)
        (name ^ ": replayed queries hit the frontier")
        true
        (hits () - before >= List.length ladder))
    [
      ("roomy", fixed_instance ());
      ("blockage-sensitive", fixed_instance ~gates:700 ());
      ("overloaded", fixed_instance ~gates:30 ());
    ]

(* [max_take] regression: the closed-form estimate floor(room / net) can
   land one off in either direction because float division is not exact.
   These literals were found by searching doubles for exactly that
   rounding; the pre-fix code (floor alone, no verify-and-adjust)
   returned the "old" value on each. *)
let test_max_take_rounding () =
  let take ~cap ~wire_area ~available =
    GF.max_take ~cap ~a_w:0.0 ~wire_area ~via:0.0 ~v:0 ~base_wires:0 ~reps:0
      ~suffix_above:available ~available
  in
  (* floor (2.2439999999999998 /. 0.374) = 5, yet 6 *. 0.374 <= cap:
     the old code under-packed by one wire. *)
  Alcotest.(check int) "undercount fixed" 6
    (take ~cap:2.2439999999999998 ~wire_area:0.374 ~available:10);
  (* floor (29.541 /. 0.687) = 43, yet 43 *. 0.687 > cap: the old code
     claimed an infeasible 43rd wire fit. *)
  Alcotest.(check int) "overcount fixed" 42
    (take ~cap:29.541 ~wire_area:0.687 ~available:100);
  (* Clamps and degenerate branches are unaffected. *)
  Alcotest.(check int) "available clamp" 3
    (take ~cap:29.541 ~wire_area:0.687 ~available:3);
  Alcotest.(check int) "no room" 0
    (take ~cap:0.0 ~wire_area:1.0 ~available:5);
  (* net <= 0: packing frees blockage, all-or-nothing on the exact
     inequality. *)
  Alcotest.(check int) "non-positive net takes all" 7
    (GF.max_take ~cap:10.0 ~a_w:0.0 ~wire_area:0.5 ~via:0.5 ~v:2
       ~base_wires:0 ~reps:0 ~suffix_above:7 ~available:7)

(* Counter-hygiene regression (the pruning PR's bugfix): the
   verify-and-adjust loop used to bump [greedy_fill/take_adjustments]
   even when the closed-form estimate was already exact and the
   adjustment was zero — every call looked like an adjustment event and
   the counter was pure noise.  Now only a non-zero correction counts. *)
let test_max_take_adjustment_counter () =
  let adjustments () =
    Option.value ~default:0
      (Ir_obs.find_counter (Ir_obs.snapshot ()) "greedy_fill/take_adjustments")
  in
  let take ~cap ~wire_area ~available =
    GF.max_take ~cap ~a_w:0.0 ~wire_area ~via:0.0 ~v:0 ~base_wires:0 ~reps:0
      ~suffix_above:available ~available
  in
  (* 8 /. 0.5 = 16.0 is exact in binary: the estimate is already the
     answer and no adjustment event may be recorded. *)
  let before = adjustments () in
  Alcotest.(check int) "exact estimate" 16
    (take ~cap:8.0 ~wire_area:0.5 ~available:40);
  Alcotest.(check int) "zero adjustment not counted" before (adjustments ());
  (* The frozen undercount literal from [test_max_take_rounding] really
     does adjust — the counter must still see those. *)
  Alcotest.(check int) "adjusting estimate" 6
    (take ~cap:2.2439999999999998 ~wire_area:0.374 ~available:10);
  Alcotest.(check bool) "real adjustment counted" true (adjustments () > before)

(* The returned count must always be maximal-feasible w.r.t. the exact
   inequality: taking it satisfies capacity, taking one more violates it
   (or exhausts the bunch). *)
let prop_max_take_maximal =
  let gen =
    QCheck2.Gen.(
      let* cap = float_range 0.0 50.0 in
      let* wire_area = float_range 0.001 5.0 in
      let* via = float_range 0.0 0.5 in
      let* v = int_range 0 4 in
      let* a_w = float_range 0.0 10.0 in
      let* base_wires = int_range 0 20 in
      let* reps = int_range 0 50 in
      let* extra = int_range 0 30 in
      let* available = int_range 0 60 in
      return (cap, wire_area, via, v, a_w, base_wires, reps, extra, available))
  in
  qtest ~count:500 "max_take is maximal-feasible" gen
    (fun (cap, wire_area, via, v, a_w, base_wires, reps, extra, available) ->
      let suffix_above = available + extra in
      let ok x =
        a_w
        +. (float_of_int x *. wire_area)
        +. (via
           *. ((float_of_int v *. float_of_int (base_wires + suffix_above - x))
              +. float_of_int reps))
        <= cap
      in
      let x =
        GF.max_take ~cap ~a_w ~wire_area ~via ~v ~base_wires ~reps
          ~suffix_above ~available
      in
      if x < 0 || x > available then
        QCheck2.Test.fail_reportf "take %d outside [0, %d]" x available
      else if x > 0 && not (ok x) then
        QCheck2.Test.fail_reportf "take %d violates capacity" x
      else if
        (* With net > 0 feasibility is downward-closed, so x + 1 must not
           fit; with net <= 0 the contract is all-or-nothing. *)
        wire_area -. (float_of_int v *. via) > 0.0
        && x < available && ok (x + 1)
      then QCheck2.Test.fail_reportf "take %d not maximal" x
      else true)

(* ---- power tables ----------------------------------------------------- *)

let test_power_tables () =
  let p = fixed_instance () in
  Alcotest.(check bool) "default problem is unconstrained" true
    (P.power_budget p = infinity);
  check_close "default activity" P.default_activity (P.activity p);
  Alcotest.(check bool) "kappa positive" true (P.kappa p > 0.0);
  (* Power is kappa times repeater area on every pair: the per-repeater
     power of the size-s model over the pair's repeater area. *)
  let arch = P.arch p in
  let design = arch.Ir_ia.Arch.design in
  let node = design.Ir_tech.Design.node in
  let vdd = Ir_tech.Node.vdd node in
  for j = 0 to P.n_pairs p - 1 do
    let pair = Ir_ia.Arch.pair arch j in
    let s = pair.Ir_ia.Layer_pair.s_opt in
    let watts =
      (P.activity p *. s *. arch.Ir_ia.Arch.device.Ir_tech.Device.c_o *. vdd
     *. vdd *. design.Ir_tech.Design.clock)
      +. (Ir_tech.Node.leakage_per_size node *. s)
    in
    check_close ~eps:1e-12
      (Printf.sprintf "pair %d: kappa = power / area" j)
      1.0
      (P.kappa p *. pair.Ir_ia.Layer_pair.repeater_area /. watts)
  done;
  (* Rebinding the default activity must reproduce kappa bit for bit
     (same expression over the same inputs). *)
  Alcotest.(check (float 0.0)) "activity rebind at default" (P.kappa p)
    (P.kappa (P.with_activity p P.default_activity));
  let b = P.with_power_budget p 0.25 in
  check_close "budget readable back" 0.25 (P.power_budget b);
  Alcotest.(check bool) "a power budget only tightens the area budget" true
    (P.budget b <= P.budget p);
  Alcotest.(check (float 0.0)) "infinite rebind leaves the area budget"
    (P.budget p)
    (P.budget (P.with_power_budget p infinity));
  Alcotest.check_raises "budget 0 rejected"
    (Invalid_argument "Problem.with_power_budget: budget <= 0") (fun () ->
      ignore (P.with_power_budget p 0.0));
  Alcotest.check_raises "activity 0 rejected"
    (Invalid_argument "Problem.with_activity: activity must be in (0, 1]")
    (fun () -> ignore (P.with_activity p 0.0));
  Alcotest.check_raises "activity > 1 rejected"
    (Invalid_argument "Problem.with_activity: activity must be in (0, 1]")
    (fun () -> ignore (P.with_activity p 1.01))

(* A power budget P caps the repeater area at the largest area whose
   reported power [kappa *. a] is within P — exactly, to the ulp: the
   cap itself reports within P and the next float up does not. *)
let prop_power_cap_exact =
  qtest ~count:200 "power cap is the largest area within the budget"
    QCheck2.Gen.(pair Helpers.gen_instance (float_range 1e-6 0.999))
    (fun ({ problem; label }, u) ->
      let full = P.with_repeater_fraction problem 1.0 in
      let kappa = P.kappa full in
      let watts = u *. kappa *. P.budget full in
      let cap = P.budget (P.with_power_budget full watts) in
      if not (kappa *. cap <= watts && kappa *. Float.succ cap > watts) then
        QCheck2.Test.fail_reportf "%s: cap %h for %h W is not the boundary"
          label cap watts
      else true)

let () =
  Alcotest.run "assign"
    [
      ( "problem",
        [
          Alcotest.test_case "dimensions" `Quick test_problem_dimensions;
          Alcotest.test_case "targets" `Quick test_problem_targets;
          Alcotest.test_case "interval areas" `Quick test_problem_interval_area;
          Alcotest.test_case "meeting costs" `Quick test_problem_meeting_cost;
          Alcotest.test_case "delay consistency" `Quick
            test_problem_delay_consistency;
          Alcotest.test_case "validation" `Quick test_problem_validation;
          Alcotest.test_case "infinite lengths rejected" `Quick
            test_problem_infinite_length;
          Alcotest.test_case "overflowing routing area rejected" `Quick
            test_problem_area_overflow;
          prop_meeting_cost_additive;
          Alcotest.test_case "power tables" `Quick test_power_tables;
          prop_power_cap_exact;
        ] );
      ( "rescale reuse",
        [
          Alcotest.test_case "repeater fraction" `Quick
            test_with_repeater_fraction;
          Alcotest.test_case "clock" `Quick test_with_clock;
          prop_rescale_paths_match_rebuild;
        ] );
      ( "pair_fill",
        [
          Alcotest.test_case "basic" `Quick test_pair_fill_basic;
          Alcotest.test_case "capacity" `Quick test_pair_fill_capacity;
          Alcotest.test_case "validation" `Quick test_pair_fill_validation;
        ] );
      ( "greedy_fill",
        [
          Alcotest.test_case "packs everything" `Quick test_greedy_fill_all;
          Alcotest.test_case "empty suffix" `Quick test_greedy_fill_empty_suffix;
          Alcotest.test_case "blockage sensitivity" `Quick
            test_greedy_fill_blockage_sensitivity;
          Alcotest.test_case "bottom-up ordering" `Quick
            test_greedy_fill_ordering;
          Alcotest.test_case "max_take float rounding" `Quick
            test_max_take_rounding;
          Alcotest.test_case "max_take adjustment counter" `Quick
            test_max_take_adjustment_counter;
          Alcotest.test_case "capacity fast-fail" `Quick
            test_greedy_fill_fast_fail;
          prop_staged_pack_matches_reference;
          prop_greedy_fill_monotone_budget;
          prop_greedy_fill_suffix_monotone;
          prop_max_take_maximal;
        ] );
      ( "suffix_fit",
        [
          Alcotest.test_case "frozen ladder replay" `Quick
            test_suffix_fit_frozen_replay;
          prop_suffix_fit_matches_oracle;
        ] );
    ]
