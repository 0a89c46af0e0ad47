(* Tests for the assignment substrate: Problem tables, Pair_fill
   (Algorithm 4) and Greedy_fill (Algorithm 5). *)

open Helpers

module P = Ir_assign.Problem
module GF = Ir_assign.Greedy_fill
module PF = Ir_assign.Pair_fill

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
  of_bunches ~arch ~bunches ()

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
        (of_bunches ~arch
           ~bunches:
             [|
               { Ir_wld.Dist.length = 1.0e-5; count = 1 };
               { Ir_wld.Dist.length = 2.0e-5; count = 1 };
             |]
           ()));
  Alcotest.check_raises "empty" (Invalid_argument "Problem: empty instance")
    (fun () -> ignore (of_bunches ~arch ~bunches:[||] ()))

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
        (of_bunches ~arch
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
        (of_bunches ~arch
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
  of_bunches ~arch ~bunches ()

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
    counter_in (Ir_obs.snapshot ()) "greedy_fill/fast_fails"
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
      problem = of_bunches ~arch:(P.arch problem) ~bunches ();
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
  let names =
    [ "calls"; "fast_fails"; "early_exits"; "below_hits"; "wires_packed";
      "top_walks" ]
  in
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
        (* The top stage's wires count only where the top pair was
           walked: [fits] walks it when the screen leaves the verdict to
           the walk (counted on [top_walks]), [pack] also when it fits. *)
        let expect ~hit ~walked ~band =
          [
            1;
            Bool.to_int r.r_fast_fail;
            Bool.to_int r.r_early;
            Bool.to_int hit;
            (if hit then 0 else r.r_packed_below)
            + (if walked then r.r_packed - r.r_packed_below else 0);
            Bool.to_int band;
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
        let band = List.nth d_fits 5 = 1 in
        let expect_fits = expect ~hit ~walked:band ~band in
        let expect_pack =
          expect ~hit:false ~walked:(band || placements <> None) ~band
        in
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
        else if band && (r.r_fast_fail || r.r_early) then
          QCheck2.Test.fail_reportf "%s: top pair walked after %s" where
            (if r.r_early then "an early exit" else "a fast fail")
        else if d_fits <> expect_fits then
          QCheck2.Test.fail_reportf "%s: fits counters (%s) <> expected (%s)"
            where (show d_fits) (show expect_fits)
        else if d_pack <> expect_pack then
          QCheck2.Test.fail_reportf "%s: pack counters (%s) <> expected (%s)"
            where (show d_pack) (show expect_pack)
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

(* ---- top-pair screen against the walk --------------------------------- *)

(* The length at which a wire's routing area on [pair] equals the via
   blockage it stops causing ([l * pitch = v * via]): shorter wires lower
   the pair's load when packed onto it, so the first end of the top-pair
   walk can bind. *)
let crossover_length problem pair =
  let arch = P.arch problem in
  let p = Ir_ia.Arch.pair arch pair in
  float_of_int arch.Ir_ia.Arch.vias_per_wire
  *. p.Ir_ia.Layer_pair.via_area
  /. Ir_ia.Layer_pair.pitch p

(* A multi-wire instance and a context on it.  Half the instances take
   their lengths from the top pair's crossover (a tenth to three times
   it), so some wires free more blockage than their area.  Half scale
   their counts so the suffix's routing area on the top pair is a fifth
   to all of the capacity of the pairs from it down: the top pair's load
   is then comparable to its capacity, and a step of one ulp in its used
   area is a step of about one ulp in the room left. *)
let gen_screen_case =
  let open QCheck2.Gen in
  let* { problem; label } = Helpers.gen_instance_of ~pairs:(int_range 1 4) in
  let n = P.n_bunches problem and m = P.n_pairs problem in
  let* top_pair = int_range 0 (m - 1) in
  let* short = bool in
  let* factors = array_repeat n (float_range 0.1 3.0) in
  let* weights = array_repeat n (int_range 1 6) in
  let* fill = option ~ratio:0.5 (float_range 0.2 1.0) in
  let lengths =
    if not short then Array.init n (P.bunch_length problem)
    else begin
      let l = crossover_length problem top_pair in
      let lengths = Array.map (fun f -> f *. l) factors in
      Array.sort (fun a b -> Float.compare b a) lengths;
      lengths
    end
  in
  let counts =
    match fill with
    | None -> weights
    | Some f ->
        let pitch =
          Ir_ia.Layer_pair.pitch (Ir_ia.Arch.pair (P.arch problem) top_pair)
        in
        let share =
          f *. float_of_int (m - top_pair) *. P.capacity problem
          /. float_of_int (Array.fold_left ( + ) 0 weights)
        in
        Array.mapi
          (fun b w ->
            max 1
              (int_of_float
                 (Float.min 1e9
                    (share *. float_of_int w /. (lengths.(b) *. pitch)))))
          weights
  in
  let bunches =
    Array.init n (fun b -> { Ir_wld.Dist.length = lengths.(b); count = counts.(b) })
  in
  let label =
    Printf.sprintf "%s%s counts=[%s]" label
      (if short then " short" else "")
      (String.concat ";" (Array.to_list (Array.map string_of_int counts)))
  in
  let problem = of_bunches ~arch:(P.arch problem) ~bunches () in
  let* from_bunch = int_range 0 (n - 1) in
  let* wt = int_range 0 40 in
  let* rt = int_range 0 400 in
  let* wb = int_range 0 20 in
  let* rb = int_range 0 400 in
  let* ulps = int_range (-64) 64 in
  return ({ problem; label }, top_pair, from_bunch, (wt, rt, wb, rb), ulps)

let rec ulp_step x k =
  if k > 0 then ulp_step (Float.succ x) (k - 1)
  else if k < 0 then ulp_step (Float.pred x) (k + 1)
  else x

(* The largest top-pair load at which the reference still fits (0 if
   none does), bisected to adjacent floats. *)
let largest_fitting_load problem ctx =
  let fits u = (reference_pack problem (ctx u)).r_placements <> None in
  if not (fits 0.0) then 0.0
  else begin
    let lo = ref 0.0 and hi = ref (P.capacity problem) in
    if fits !hi then lo := !hi;
    while Float.succ !lo < !hi do
      let mid = 0.5 *. (!lo +. !hi) in
      let mid = if mid <= !lo || mid >= !hi then Float.succ !lo else mid in
      if fits mid then lo := mid else hi := mid
    done;
    !lo
  end

let prop_top_screen_matches_walk =
  qtest ~count:300 "top-pair screen = walk" gen_screen_case
    (fun ({ problem; label }, top_pair, from_bunch, (wt, rt, wb, rb), ulps) ->
      let ctx top_pair_used =
        GF.context ~top_pair_used ~wires_above_top:wt ~reps_above_top:rt
          ~wires_above_below:wb ~reps_above_below:rb ~from_bunch ~top_pair ()
      in
      let used = ulp_step (largest_fitting_load problem ctx) ulps in
      let ctx = ctx used in
      let want = (reference_pack problem ctx).r_placements in
      let fits = GF.fits problem ctx and placements = GF.pack problem ctx in
      let where =
        Printf.sprintf "%s: fb=%d tp=%d used=%h (%+d ulps) wt=%d rt=%d wb=%d rb=%d"
          label from_bunch top_pair used ulps wt rt wb rb
      in
      if fits <> Option.is_some want then
        QCheck2.Test.fail_reportf "%s: fits %b, reference %b" where fits
          (not fits)
      else if not (Option.equal (List.equal GF.equal_placement) placements want)
      then QCheck2.Test.fail_reportf "%s: pack placements differ" where
      else true)

(* The property above, and proof that its calls reach the walk: a
   screen whose band never holds a call would pass it without the walk's
   verdict ever being compared. *)
let test_top_screen_matches_walk () =
  let walks () =
    counter_in (Ir_obs.snapshot ()) "greedy_fill/top_walks"
  in
  let before = walks () in
  let _, _, run = prop_top_screen_matches_walk in
  run ();
  Alcotest.(check bool) "some top stages were left to the walk" true
    (walks () > before)

(* Frozen: wires shorter than the crossover on the only available pair,
   so each one packed lowers the load and the first bunch's load is the
   largest.  The pair's room is set between the two ends: the last end
   fits, the first does not, and the walk rejects at its first test. *)
let test_top_screen_first_end () =
  let shell = fixed_instance () in
  let arch = P.arch shell in
  let top_pair = P.n_pairs shell - 1 in
  let l = crossover_length shell top_pair in
  let bunches =
    Array.of_list
      (List.map
         (fun (f, count) -> { Ir_wld.Dist.length = f *. l; count })
         [ (0.5, 3); (0.4, 4); (0.3, 5) ])
  in
  let p = of_bunches ~arch ~bunches () in
  let pair = Ir_ia.Arch.pair arch top_pair in
  let via = pair.Ir_ia.Layer_pair.via_area in
  let v = float_of_int arch.Ir_ia.Arch.vias_per_wire in
  let total = P.total_wires p and rem = P.bunch_count p 2 in
  let first =
    (float_of_int rem *. (P.bunch_length p 2 *. Ir_ia.Layer_pair.pitch pair))
    +. (via *. (v *. float_of_int (total - rem)))
  in
  let last = P.interval_area p ~pair:top_pair ~lo:0 ~hi:3 in
  let cap = P.capacity p in
  let used = cap -. (0.5 *. (first +. last)) in
  let ctx = GF.context ~top_pair_used:used ~from_bunch:0 ~top_pair () in
  let cap_q = cap -. used in
  Alcotest.(check bool) "first end above the room, last end within" true
    (first > cap_q && cap_q >= last);
  let read name = counter_in (Ir_obs.snapshot ()) ("greedy_fill/" ^ name) in
  let fails = read "fast_fails" and walks = read "top_walks" in
  Alcotest.(check bool) "reference rejects" true
    ((reference_pack p ctx).r_placements = None);
  Alcotest.(check bool) "fits rejects" false (GF.fits p ctx);
  Alcotest.(check bool) "pack rejects" true (GF.pack p ctx = None);
  Alcotest.(check int) "no capacity-screen reject" fails (read "fast_fails");
  Alcotest.(check int) "decided without a walk" walks (read "top_walks")

let test_top_pair_used_finite () =
  let p = fixed_instance () in
  List.iter
    (fun used ->
      let ctx = GF.context ~top_pair_used:used ~from_bunch:0 ~top_pair:0 () in
      let raises what f =
        Alcotest.check_raises
          (Printf.sprintf "%s %h" what used)
          (Invalid_argument "Greedy_fill: top_pair_used must be finite")
          (fun () -> ignore (f ()))
      in
      raises "fits" (fun () -> GF.fits p ctx);
      raises "pack" (fun () -> GF.pack p ctx))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

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
    counter_in (Ir_obs.snapshot ()) "greedy_fill/take_adjustments"
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

(* A digest of everything set-up computes, read through the public
   accessors: per bunch the length's bits, count, wire prefix and
   target's bits; per pair and bunch the repeater verdict; per pair and
   prefix the routing area's bits, the repeater area's bits, the
   repeater count and the feasibility of the prefix. *)
let problem_digest p =
  let n = P.n_bunches p and m = P.n_pairs p in
  let b = Buffer.create 65536 in
  let bits x = Int64.bits_of_float x in
  for i = 0 to n - 1 do
    Printf.bprintf b "%Lx/%d/%d/%Lx;"
      (bits (P.bunch_length p i))
      (P.bunch_count p i) (P.wires_before p i)
      (bits (P.target p i))
  done;
  for j = 0 to m - 1 do
    Printf.bprintf b "\npair %d:" j;
    for i = 0 to n - 1 do
      Printf.bprintf b "%d,"
        (Option.value ~default:(-1) (P.eta_min p ~pair:j ~bunch:i))
    done;
    for i = 0 to n do
      Printf.bprintf b "%Lx/%Lx/%d/%b;"
        (bits (P.interval_area p ~pair:j ~lo:0 ~hi:i))
        (bits (P.meeting_area p ~pair:j ~lo:0 ~hi:i))
        (P.meeting_count p ~pair:j ~lo:0 ~hi:i)
        (P.meeting_feasible p ~pair:j ~lo:0 ~hi:i)
    done
  done;
  Printf.bprintf b "\n%d/%Lx/%Lx/%Lx" (P.total_wires p)
    (bits (P.budget p)) (bits (P.capacity p)) (bits (P.kappa p));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Frozen digests of the set-up path, WLD -> bunches -> [Problem]: the
   three [cross_widen] cells as [Rank.problem_of_design] builds them,
   the serve tier's 90nm/1M family as [Fingerprint.problem] builds it,
   and one plane derived from it through [with_materials] and
   [with_clock].  Set-up may get faster, but every float must come from
   the same operations in the same order: any change moves these. *)
let test_problem_tables_byte_stable () =
  let cross ?structure ~gates node =
    Ir_core.Rank.problem_of_design ?structure
      (Ir_core.Rank.baseline_design ~gates node)
  in
  let three_pair =
    { Ir_ia.Arch.baseline_structure with Ir_ia.Arch.semi_global_pairs = 1 }
  in
  let serve_family =
    match Ir_serve.Fingerprint.v ~node:"90nm" ~gates:1_000_000 () with
    | Ok q -> Ir_serve.Fingerprint.problem q
    | Error e -> Alcotest.failf "90nm/1M query rejected: %s" e
  in
  let derived =
    P.with_clock
      (P.with_materials serve_family (Ir_ia.Materials.v ~k:2.7 ~miller:1.4 ()))
      6e8
  in
  List.iter
    (fun (label, problem, digest) ->
      Alcotest.(check string) label digest (problem_digest problem))
    [
      ( "n90_4750k",
        cross ~gates:4_750_000 Ir_tech.Node.N90,
        "2f0216794e0bc4645f37422f2cf3159d" );
      ( "n90_4500k_3pair",
        cross ~structure:three_pair ~gates:4_500_000 Ir_tech.Node.N90,
        "cae26d70252759fa36bd28872714c217" );
      ( "n180_6000k",
        cross ~gates:6_000_000 Ir_tech.Node.N180,
        "a4c3eaa0e76513bf2e4c5db461ffbebc" );
      ("serve 90nm/1M", serve_family, "ac6d14dc2e13e9a91b216301db1fbe0b");
      ( "serve 90nm/1M k 2.7, Miller 1.4, 0.6 GHz",
        derived,
        "a709c05bfc60d50e3f58e6f1f8d45e97" );
    ]

(* [of_bunches] on [Coarsen.bunch]'s columns builds the instance [make]
   builds from the WLD: the same digest, at several bunch sizes and with
   a noise limit and a non-linear target model. *)
let test_of_bunches_matches_make () =
  List.iter
    (fun (node, gates, bunch_size, target_model, noise_limit) ->
      let design = Ir_core.Rank.baseline_design ~gates node in
      let arch = Ir_ia.Arch.make ~design () in
      let wld = Ir_wld.Davis.generate (Ir_wld.Davis.params ~gates ()) in
      let pitch = Ir_tech.Design.effective_gate_pitch design in
      let made =
        P.make ~target_model ?noise_limit ~bunch_size ~arch ~wld ()
      and built =
        P.of_bunches ~target_model ?noise_limit ~arch
          ~bunches:(Ir_wld.Coarsen.bunch ~bunch_size ~pitch wld) ()
      in
      Alcotest.(check string)
        (Printf.sprintf "%d gates, bunch size %d" gates bunch_size)
        (problem_digest made) (problem_digest built))
    [
      (Ir_tech.Node.N130, 40_000, 500, Ir_delay.Target.Linear, None);
      (Ir_tech.Node.N90, 200_000, 37, Quadratic_blend { weight = 0.5 }, None);
      (Ir_tech.Node.N180, 100_000, 10_000, Affine { floor = 1e-10 }, Some 0.2);
    ]

(* [Model.repeaters_needed] as it was before its eta-independent terms
   were hoisted: every probe of the search is a full [wire_delay]. *)
let reference_repeaters_needed ?(eta_cap = 1_000_000) dev line ~s ~target l =
  let d eta = Ir_delay.Model.wire_delay dev line ~s ~eta l in
  if d 1 <= target then Some 1
  else
    let eta_best = Ir_delay.Model.eta_opt dev line ~s l in
    if eta_best > eta_cap || d (min eta_best eta_cap) > target then None
    else
      let rec search lo hi =
        if hi - lo <= 1 then hi
        else
          let mid = lo + ((hi - lo) / 2) in
          if d mid <= target then search lo mid else search mid hi
      in
      Some (search 1 eta_best)

(* Half the targets are a delay [wire_delay ~eta:k l] itself, so that
   the search's verdict at [k] turns on the delay's last bit: a kernel
   whose delays differ from [wire_delay]'s in any bit fails here. *)
let prop_repeaters_needed_matches_reference =
  qtest ~count:500 "repeaters_needed = a wire_delay search"
    QCheck2.Gen.(
      let* node = oneofl Ir_tech.Node.[ N180; N130; N90 ] in
      let* pair = int_range 0 3 in
      let* log_l = float_range (log 1e-6) (log 2e-2) in
      let* factor = float_range 0.02 1.2 in
      let* tie = bool in
      let* own_s = bool in
      let* s = float_range 1.0 200.0 in
      let* eta_cap = oneof [ return None; map Option.some (int_range 1 60) ] in
      return (node, pair, exp log_l, factor, tie, own_s, s, eta_cap))
    (fun (node, j, l, factor, tie, own_s, s, eta_cap) ->
      let arch = Ir_ia.Arch.make ~design:(Ir_core.Rank.baseline_design node) () in
      let p = Ir_ia.Arch.pair arch j in
      let dev = arch.Ir_ia.Arch.device and line = p.Ir_ia.Layer_pair.line in
      let s = if own_s then p.Ir_ia.Layer_pair.s_opt else s in
      let target =
        if tie then
          let eta_best = Ir_delay.Model.eta_opt dev line ~s l in
          let k = 1 + int_of_float (factor /. 1.2 *. float_of_int (eta_best - 1)) in
          Ir_delay.Model.wire_delay dev line ~s ~eta:k l
        else factor *. Ir_delay.Model.wire_delay dev line ~s ~eta:1 l
      in
      let got =
        Ir_delay.Model.repeaters_needed ?eta_cap dev line ~s ~target l
      and want = reference_repeaters_needed ?eta_cap dev line ~s ~target l in
      got = want
      || QCheck2.Test.fail_reportf "l %h target %h s %h: got %s, want %s" l
           target s
           (Option.fold ~none:"None" ~some:string_of_int got)
           (Option.fold ~none:"None" ~some:string_of_int want))

(* Set-up from bunches to repeater tables as it was written before the
   per-pair Eq. (3) kernel: the targets by [Target.delay]'s formula per
   bunch, and per pair and bunch a [repeaters_needed] that computes every
   factor of Eq. (3) from the device and the line ([terms], [delay_at] and
   [round_eta] spelled out), then the area/count/infeasibility prefixes.
   No verdict is shared between bunches. *)
module Plain_setup = struct
  let target (model : Ir_delay.Target.t) ~clock ~l_max l =
    let period = 1.0 /. clock in
    let x = Float.min 1.0 (l /. l_max) in
    match model with
    | Linear -> x *. period
    | Affine { floor } -> floor +. (x *. (period -. floor))
    | Quadratic_blend { weight } ->
        period *. (((1.0 -. weight) *. x) +. (weight *. x *. x))

  let stage (dev : Ir_tech.Device.t) = 0.7 *. dev.r_o *. (dev.c_o +. dev.c_p)

  let delay_1 (dev : Ir_tech.Device.t) (line : Ir_delay.Model.line) ~s l =
    let pm =
      0.7
      *. ((line.c_per_m *. dev.r_o /. s) +. (line.r_per_m *. dev.c_o *. s))
      *. l
    in
    let q = 0.4 *. line.r_per_m *. line.c_per_m *. l *. l in
    (stage dev *. 1.0) +. pm +. (q /. 1.0)

  let repeaters_needed ?(eta_cap = 1_000_000) (dev : Ir_tech.Device.t)
      (line : Ir_delay.Model.line) ~s ~target l =
    let si = stage dev in
    let pm =
      0.7
      *. ((line.c_per_m *. dev.r_o /. s) +. (line.r_per_m *. dev.c_o *. s))
      *. l
    in
    let q = 0.4 *. line.r_per_m *. line.c_per_m *. l *. l in
    let delay eta =
      let e = float_of_int eta in
      (si *. e) +. pm +. (q /. e)
    in
    if delay 1 <= target then Some 1
    else
      let cont =
        l *. sqrt (0.4 *. line.r_per_m *. line.c_per_m /. si)
      in
      let lo = max 1 (int_of_float (Float.floor cont)) in
      let eta_best = if delay lo <= delay (lo + 1) then lo else lo + 1 in
      if eta_best > eta_cap || delay (min eta_best eta_cap) > target then None
      else
        let rec search lo hi =
          if hi - lo <= 1 then hi
          else
            let mid = lo + ((hi - lo) / 2) in
            if delay mid <= target then search lo mid else search mid hi
        in
        Some (search 1 eta_best)

  (* The first difference between [p]'s targets and tables and the plain
     ones for [lengths]/[counts] under [model] and [noise_limit]. *)
  let mismatch p ~model ~noise_limit ~lengths ~counts =
    let arch = P.arch p in
    let dev = arch.Ir_ia.Arch.device in
    let clock = arch.Ir_ia.Arch.design.Ir_tech.Design.clock in
    let mats = arch.Ir_ia.Arch.materials in
    let n = Array.length lengths in
    let bits = Int64.bits_of_float in
    let targets =
      Array.map (target model ~clock ~l_max:lengths.(0)) lengths
    in
    let bad = ref None in
    let fail fmt = Printf.ksprintf (fun m -> if !bad = None then bad := Some m) fmt in
    Array.iteri
      (fun b t ->
        if bits (P.target p b) <> bits t then
          fail "bunch %d: target %h, plain %h" b (P.target p b) t)
      targets;
    for j = 0 to P.n_pairs p - 1 do
      let pr = Ir_ia.Arch.pair arch j in
      let noisy =
        match noise_limit with
        | None -> false
        | Some limit ->
            not
              (Ir_rc.Noise.passes ~k:mats.Ir_ia.Materials.k
                 ~miller:mats.Ir_ia.Materials.miller ~limit
                 pr.Ir_ia.Layer_pair.geom)
      in
      let area = ref 0.0 and count = ref 0 and infeasible = ref 0 in
      for b = 0 to n do
        if P.meeting_feasible p ~pair:j ~lo:0 ~hi:b <> (!infeasible = 0) then
          fail "pair %d prefix %d: feasibility" j b
        else if
          !infeasible = 0
          && (bits (P.meeting_area p ~pair:j ~lo:0 ~hi:b) <> bits !area
             || P.meeting_count p ~pair:j ~lo:0 ~hi:b <> !count)
        then
          fail "pair %d prefix %d: area %h count %d, plain %h %d" j b
            (P.meeting_area p ~pair:j ~lo:0 ~hi:b)
            (P.meeting_count p ~pair:j ~lo:0 ~hi:b)
            !area !count;
        if b < n then begin
          let e =
            if noisy then None
            else
              repeaters_needed dev pr.Ir_ia.Layer_pair.line
                ~s:pr.Ir_ia.Layer_pair.s_opt ~target:targets.(b) lengths.(b)
          in
          if P.eta_min p ~pair:j ~bunch:b <> e then
            fail "pair %d bunch %d (l %h, target %h): eta_min %s, plain %s" j
              b lengths.(b) targets.(b)
              (Option.fold ~none:"None" ~some:string_of_int
                 (P.eta_min p ~pair:j ~bunch:b))
              (Option.fold ~none:"None" ~some:string_of_int e);
          match e with
          | Some e ->
              area :=
                !area
                +. (float_of_int counts.(b) *. float_of_int e
                   *. pr.Ir_ia.Layer_pair.repeater_area);
              count := !count + (counts.(b) * e)
          | None -> incr infeasible
        end
      done
    done;
    !bad
end

(* [Problem]'s targets, repeater tables and [eta_min] = [Plain_setup], bit
   for bit, through [of_bunches], [with_clock] and [with_materials]: random
   stacks and materials, all three target models, noise limits that fail
   some pairs, runs of equal-length bunches (a split bin's verdict is
   shared), a clock that puts the longest bunch's target exactly on its
   one-repeater delay [D(1)] on one pair (the verdict then turns on
   [D(1)]'s last bit), and a bunch whose optimal count sits at the
   default [eta_cap] of 1,000,000. *)
type kernel_case = {
  kc_edge : [ `Plain | `Tie | `Cap ];
  kc_label : string;
  kc_problems : (string * P.t) list;
  kc_model : Ir_delay.Target.t;
  kc_noise : float option;
  kc_lengths : float array;
  kc_counts : int array;
}

let gen_kernel_case =
  let open QCheck2.Gen in
  let* stack = Helpers.gen_stack in
  let* m_total = int_range 1 4 in
  let* k = float_range 2.0 4.0 in
  let* miller = float_range 1.0 2.0 in
  let* kc_noise = oneof [ return None; map Option.some (float_range 0.05 0.6) ] in
  let* kc_edge = oneofl [ `Plain; `Tie; `Cap ] in
  let* model_kind = int_range 0 2 in
  let* param = float_range 0.0 0.9 in
  let* clock_ghz = float_range 0.2 4.0 in
  let* edge_pair = int_range 0 3 in
  let* cap_delta = oneofl [ -1.0; -0.5; 0.0; 0.5; 1.0; 1.5; 2.0 ] in
  let* runs =
    list_size (int_range 1 8)
      (pair (float_range 0.0 1.0) (list_size (int_range 1 3) (int_range 1 40)))
  in
  let clock = if kc_edge = `Cap then 1e2 else clock_ghz *. 1e9 in
  let kc_model : Ir_delay.Target.t =
    match (kc_edge, model_kind) with
    | `Tie, _ | _, 0 -> Linear
    | _, 1 -> Affine { floor = param /. clock }
    | _ -> Quadratic_blend { weight = param /. 0.9 }
  in
  let node = Ir_tech.Node.Custom { name = "qcheck"; feature = 130e-9 } in
  let design = Ir_tech.Design.v ~node ~gates:640 ~clock () in
  let structure =
    match m_total with
    | 1 -> { Ir_ia.Arch.local_pairs = 0; semi_global_pairs = 1; global_pairs = 0 }
    | 2 -> { Ir_ia.Arch.local_pairs = 0; semi_global_pairs = 1; global_pairs = 1 }
    | 3 -> { Ir_ia.Arch.local_pairs = 1; semi_global_pairs = 1; global_pairs = 1 }
    | _ -> { Ir_ia.Arch.local_pairs = 1; semi_global_pairs = 2; global_pairs = 1 }
  in
  let materials = Ir_ia.Materials.v ~k ~miller () in
  let arch = Ir_ia.Arch.make ~structure ~stack ~materials ~design () in
  let edge_pr = Ir_ia.Arch.pair arch (edge_pair mod m_total) in
  let dev = arch.Ir_ia.Arch.device and line = edge_pr.Ir_ia.Layer_pair.line in
  let bunches =
    List.concat_map
      (fun (u, counts) ->
        (* log-uniform over [1 um, 2 cm] *)
        let l = exp (log 1e-6 +. (u *. (log 2e-2 -. log 1e-6))) in
        List.map (fun c -> (l, c)) counts)
      runs
  in
  let bunches =
    if kc_edge = `Cap then
      let root =
        sqrt (0.4 *. line.r_per_m *. line.c_per_m /. Plain_setup.stage dev)
      in
      ((1e6 +. cap_delta) /. root, 1) :: bunches
    else bunches
  in
  let bunches =
    Array.of_list (List.stable_sort (fun (a, _) (b, _) -> Float.compare b a) bunches)
  in
  let kc_lengths = Array.map fst bunches and kc_counts = Array.map snd bunches in
  let base =
    P.of_bunches ~target_model:kc_model ?noise_limit:kc_noise ~arch
      ~bunches:{ Ir_wld.Coarsen.lengths = kc_lengths; counts = kc_counts } ()
  in
  (* The clock whose period is [D(1)] of the longest bunch on the edge
     pair, if one within a few ulps of 1 / D(1) gives it exactly. *)
  let tied =
    if kc_edge <> `Tie then []
    else
      let d1 =
        Plain_setup.delay_1 dev line ~s:edge_pr.Ir_ia.Layer_pair.s_opt
          kc_lengths.(0)
      in
      let c0 = 1.0 /. d1 in
      match
        List.find_opt
          (fun c -> 1.0 /. c = d1)
          [ c0; Float.succ c0; Float.pred c0; Float.succ (Float.succ c0);
            Float.pred (Float.pred c0) ]
      with
      | Some c -> [ ("with_clock at D(1)", P.with_clock base c) ]
      | None -> []
  in
  let rebound =
    P.with_materials base (Ir_ia.Materials.v ~k:(k *. 0.9) ~miller ())
  in
  return
    {
      kc_edge;
      kc_label =
        Printf.sprintf "%d pairs, %d bunches, model %s, noise %s"
          m_total (Array.length kc_lengths)
          (Ir_delay.Target.show kc_model)
          (Option.fold ~none:"none" ~some:string_of_float kc_noise);
      kc_problems = [ ("of_bunches", base); ("with_materials", rebound) ] @ tied;
      kc_model;
      kc_noise;
      kc_lengths;
      kc_counts;
    }

(* Also fails if no case put a target exactly on [D(1)], or none reached
   a bunch whose verdict the cap decides. *)
let test_repeater_tables_match_plain () =
  let ties = ref 0 and caps = ref 0 in
  QCheck2.Test.check_exn ~rand:(QCheck_base_runner.random_state ())
    (QCheck2.Test.make ~count:300
       ~name:"repeater tables = the plain per-bunch loop, bit for bit"
       gen_kernel_case (fun c ->
         List.iter
           (fun (path, p) ->
             if path = "with_clock at D(1)" then incr ties;
             if c.kc_edge = `Cap then begin
               let arch = P.arch p in
               let needed eta_cap =
                 List.init (P.n_pairs p) (fun j ->
                     let pr = Ir_ia.Arch.pair arch j in
                     Plain_setup.repeaters_needed ~eta_cap
                       arch.Ir_ia.Arch.device pr.Ir_ia.Layer_pair.line
                       ~s:pr.Ir_ia.Layer_pair.s_opt ~target:(P.target p 0)
                       c.kc_lengths.(0))
               in
               if needed 1_000_000 <> needed max_int then incr caps
             end)
           c.kc_problems;
         List.for_all
           (fun (path, p) ->
             match
               Plain_setup.mismatch p ~model:c.kc_model ~noise_limit:c.kc_noise
                 ~lengths:c.kc_lengths ~counts:c.kc_counts
             with
             | None -> true
             | Some m ->
                 QCheck2.Test.fail_reportf "%s (%s): %s" path c.kc_label m)
           c.kc_problems));
  if !ties = 0 then Alcotest.fail "no case put a target on D(1)";
  if !caps = 0 then Alcotest.fail "no case reached the eta_cap edge"

(* Split bunches of one bin share a repeater verdict: every bunch's
   [eta_min] is the verdict computed for it alone. *)
let prop_split_bunch_verdicts =
  qtest ~count:40 "eta_min of every split bunch = its own verdict"
    QCheck2.Gen.(
      pair (oneofl Ir_tech.Node.[ N180; N130; N90 ]) (int_range 1 400))
    (fun (node, bunch_size) ->
      let gates = 20_000 in
      let design = Ir_core.Rank.baseline_design ~gates node in
      let arch = Ir_ia.Arch.make ~design () in
      let wld = Ir_wld.Davis.generate (Ir_wld.Davis.params ~gates ()) in
      let p = P.make ~bunch_size ~arch ~wld () in
      let ok = ref true in
      for j = 0 to P.n_pairs p - 1 do
        let pr = Ir_ia.Arch.pair arch j in
        for b = 0 to P.n_bunches p - 1 do
          let fresh =
            Ir_delay.Model.repeaters_needed arch.Ir_ia.Arch.device
              pr.Ir_ia.Layer_pair.line ~s:pr.Ir_ia.Layer_pair.s_opt
              ~target:(P.target p b) (P.bunch_length p b)
          in
          if P.eta_min p ~pair:j ~bunch:b <> fresh then ok := false
        done
      done;
      !ok)

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

(* [P.blocked] reads its pair's via pad from the problem instead of
   deriving it per call: it must stay [Arch.blocked_area] bit for bit,
   for either via model and any via count, on the problem as built and
   after [with_materials] rebinds its pairs, and raise on a negative
   count as [Arch.blocked_area] does. *)
let prop_blocked_matches_arch =
  qtest ~count:200 "blocked = Arch.blocked_area, bit for bit"
    QCheck2.Gen.(
      let* inst = Helpers.gen_instance in
      let* via_model = oneofl [ Ir_ia.Via_model.Pad; Ir_ia.Via_model.Track ] in
      let* vias = int_range 0 4 in
      let* k = float_range 1.5 4.0 and* miller = float_range 1.0 2.0 in
      let* counts = list_size (int_range 1 8) (pair nat nat) in
      return (inst, via_model, vias, (k, miller), counts))
    (fun ({ problem; label }, via_model, vias, (k, miller), counts) ->
      let arch =
        {
          (P.arch problem) with
          Ir_ia.Arch.via_model;
          vias_per_wire = vias;
        }
      in
      let p =
        of_bunches ~arch
          ~bunches:
            (Array.init (P.n_bunches problem) (fun b ->
                 {
                   Ir_wld.Dist.length = P.bunch_length problem b;
                   count = P.bunch_count problem b;
                 }))
          ()
      in
      let check stage p =
        let arch = P.arch p in
        for pair = 0 to P.n_pairs p - 1 do
          List.iter
            (fun (wires, reps) ->
              let got = P.blocked p ~pair ~wires_above:wires ~reps_above:reps
              and want =
                Ir_ia.Arch.blocked_area arch ~pair_index:pair
                  ~wires_above:wires ~repeaters_above:reps
              in
              if Int64.bits_of_float got <> Int64.bits_of_float want then
                QCheck2.Test.fail_reportf
                  "%s, %s: pair %d, %d wires, %d repeaters: %h <> %h" label
                  stage pair wires reps got want)
            counts;
          List.iter
            (fun (wires, reps) ->
              match P.blocked p ~pair ~wires_above:wires ~reps_above:reps with
              | _ ->
                  QCheck2.Test.fail_reportf "%s, %s: (%d, %d) accepted" label
                    stage wires reps
              | exception Invalid_argument _ -> ())
            [ (-1, 0); (0, -1) ]
        done
      in
      check "built" p;
      check "with_materials"
        (P.with_materials p (Ir_ia.Materials.v ~k ~miller ()));
      true)

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
          Alcotest.test_case "problem tables are byte-stable" `Quick
            test_problem_tables_byte_stable;
          Alcotest.test_case "of_bunches = make on the same bunches" `Quick
            test_of_bunches_matches_make;
          prop_meeting_cost_additive;
          prop_repeaters_needed_matches_reference;
          Alcotest.test_case
            "repeater tables = the plain per-bunch loop, bit for bit" `Quick
            test_repeater_tables_match_plain;
          prop_split_bunch_verdicts;
          Alcotest.test_case "power tables" `Quick test_power_tables;
          prop_power_cap_exact;
          prop_blocked_matches_arch;
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
          Alcotest.test_case "top-pair screen = walk" `Quick
            test_top_screen_matches_walk;
          Alcotest.test_case "top-pair screen: first end binds" `Quick
            test_top_screen_first_end;
          Alcotest.test_case "non-finite top_pair_used rejected" `Quick
            test_top_pair_used_finite;
          prop_greedy_fill_monotone_budget;
          prop_greedy_fill_suffix_monotone;
          prop_max_take_maximal;
        ] );
    ]
