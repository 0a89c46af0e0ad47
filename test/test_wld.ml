(* Tests for the Davis WLD, the discrete distribution type and the
   coarsening (bunching/binning) procedures. *)

open Helpers

let params_1m = Ir_wld.Davis.params ~gates:1_000_000 ()
let small = Ir_wld.Davis.params ~gates:10_000 ()

let test_davis_params () =
  check_close "default rent" 0.6 params_1m.rent_p;
  check_close "default fanout" 3.0 params_1m.fan_out;
  Alcotest.check_raises "bad rent"
    (Invalid_argument "Davis.params: rent_p must lie in (0, 1)") (fun () ->
      ignore (Ir_wld.Davis.params ~rent_p:1.0 ~gates:100 ()));
  check_close "l_max" 2000.0 (Ir_wld.Davis.l_max params_1m)

let test_davis_density_support () =
  check_close "zero below 1" 0.0 (Ir_wld.Davis.density small 0.5);
  check_close "zero above 2 sqrt N" 0.0 (Ir_wld.Davis.density small 201.0);
  Alcotest.(check bool) "positive at 1" true
    (Ir_wld.Davis.density small 1.0 > 0.0);
  Alcotest.(check bool) "positive in region II" true
    (Ir_wld.Davis.density small 150.0 > 0.0)

let test_davis_density_continuity () =
  (* The density is continuous at the region boundary sqrt N. *)
  let sqn = 100.0 in
  let below = Ir_wld.Davis.density small (sqn -. 1e-6) in
  let above = Ir_wld.Davis.density small (sqn +. 1e-6) in
  check_close ~eps:1e-3 "continuous at sqrt N" below above

let test_davis_cumulative () =
  check_close "cumulative at 1 is 0" 0.0 (Ir_wld.Davis.cumulative small 1.0);
  check_close ~eps:1e-9 "cumulative at l_max is total"
    (Ir_wld.Davis.total small)
    (Ir_wld.Davis.cumulative small (Ir_wld.Davis.l_max small));
  (* Cumulative agrees with numeric quadrature of the density. *)
  let quad =
    Ir_phys.Numeric.integrate ~n:4096
      (fun l -> Ir_wld.Davis.density small l)
      1.0 57.0
  in
  check_close ~eps:1e-3 "cumulative vs quadrature" quad
    (Ir_wld.Davis.cumulative small 57.0)

let test_davis_generate () =
  let d = Ir_wld.Davis.generate params_1m in
  Alcotest.(check int) "total is fanout * N" 3_000_000 (Ir_wld.Dist.total d);
  Alcotest.(check (result unit string)) "invariants hold" (Ok ())
    (Ir_wld.Dist.check_invariants d);
  Alcotest.(check bool) "mean around 9-10 pitches" true
    (let m = Ir_wld.Dist.mean_length d in
     m > 8.0 && m < 12.0);
  Alcotest.(check bool) "l_max below 2 sqrt N" true
    (Ir_wld.Dist.l_max d <= 2000.0)

(* Frozen digests of the generated bins, per bin the length's bits and
   the count, at the design sizes the benchmarks and the serve tier
   generate: any change to the float operations behind a bin moves them. *)
let test_davis_generate_pinned () =
  List.iter
    (fun (gates, digest) ->
      let d = Ir_wld.Davis.generate (Ir_wld.Davis.params ~gates ()) in
      let b = Buffer.create 65536 in
      Array.iter
        (fun { Ir_wld.Dist.length; count } ->
          Printf.bprintf b "%Lx/%d;" (Int64.bits_of_float length) count)
        (Ir_wld.Dist.bins d);
      Alcotest.(check string)
        (Printf.sprintf "bins at %d gates" gates)
        digest
        (Digest.to_hex (Digest.string (Buffer.contents b))))
    [
      (200_000, "fe6ec8068d4f2d265f14b55e6a59d30a");
      (1_000_000, "3cc09c31ba38a5ea0baf32e8f88f8ca9");
      (4_750_000, "678d0b201bb30b6a5425b19764d8ea7a");
      (6_000_000, "b50c27bd73560747435f9f862b91ef46");
    ]

let test_davis_tail_fractions () =
  (* The C-column plateau mechanism: tail fractions at small integer
     lengths; these anchor the Table 4 C reproduction. *)
  let d = Ir_wld.Davis.generate params_1m in
  let n = float_of_int (Ir_wld.Dist.total d) in
  let frac l = float_of_int (Ir_wld.Dist.count_at_least d l) /. n in
  check_in_range "frac >= 3" ~lo:0.42 ~hi:0.52 (frac 3.0);
  check_in_range "frac >= 5" ~lo:0.25 ~hi:0.33 (frac 5.0);
  check_in_range "frac >= 7" ~lo:0.18 ~hi:0.25 (frac 7.0)

let test_generate_meters () =
  let pitch = 2.1e-6 in
  let d = Ir_wld.Davis.generate_meters small ~pitch in
  check_close "l_min scaled" pitch (Ir_wld.Dist.l_min d)

let test_dist_basics () =
  let d =
    Ir_wld.Dist.of_bins
      [
        { Ir_wld.Dist.length = 3.0; count = 2 };
        { Ir_wld.Dist.length = 1.0; count = 5 };
        { Ir_wld.Dist.length = 3.0; count = 1 };
        { Ir_wld.Dist.length = 2.0; count = 0 };
      ]
  in
  Alcotest.(check int) "total" 8 (Ir_wld.Dist.total d);
  Alcotest.(check int) "bins merged, zero dropped" 2 (Ir_wld.Dist.n_bins d);
  check_close "l_max" 3.0 (Ir_wld.Dist.l_max d);
  check_close "l_min" 1.0 (Ir_wld.Dist.l_min d);
  check_close "mean" ((3.0 *. 3.0) +. 5.0 *. 1.0) (Ir_wld.Dist.mean_length d *. 8.0);
  Alcotest.(check int) "count at least 2" 3 (Ir_wld.Dist.count_at_least d 2.0);
  check_close "rank 1 is longest" 3.0 (Ir_wld.Dist.length_at_rank d 1);
  check_close "rank 3 is last long wire" 3.0 (Ir_wld.Dist.length_at_rank d 3);
  check_close "rank 4 is short" 1.0 (Ir_wld.Dist.length_at_rank d 4);
  check_close "rank 8" 1.0 (Ir_wld.Dist.length_at_rank d 8);
  let desc = Ir_wld.Dist.to_desc_list d in
  check_close "desc first" 3.0 (List.hd desc).Ir_wld.Dist.length

let test_dist_validation () =
  Alcotest.check_raises "negative count"
    (Invalid_argument "Dist.of_bins: negative count") (fun () ->
      ignore (Ir_wld.Dist.of_bins [ { Ir_wld.Dist.length = 1.0; count = -1 } ]));
  Alcotest.check_raises "zero length"
    (Invalid_argument "Dist.of_bins: lengths must be > 0") (fun () ->
      ignore (Ir_wld.Dist.of_bins [ { Ir_wld.Dist.length = 0.0; count = 1 } ]));
  Alcotest.check_raises "rank out of range"
    (Invalid_argument "Dist.length_at_rank: out of range") (fun () ->
      ignore
        (Ir_wld.Dist.length_at_rank
           (Ir_wld.Dist.of_bins [ { Ir_wld.Dist.length = 1.0; count = 1 } ])
           2))

(* Lengths must be finite as well as positive: an infinite bin used to
   pass the [length > 0] test and reach [Problem], whose prefix tables
   then held inf - inf = NaN. *)
let test_dist_infinite_length () =
  Alcotest.check_raises "infinite length"
    (Invalid_argument "Dist.of_bins: lengths must be finite") (fun () ->
      ignore
        (Ir_wld.Dist.of_bins
           [
             { Ir_wld.Dist.length = 1.0; count = 3 };
             { Ir_wld.Dist.length = infinity; count = 1 };
           ]));
  Alcotest.check_raises "NaN length"
    (Invalid_argument "Dist.of_bins: lengths must be > 0") (fun () ->
      ignore (Ir_wld.Dist.of_bins [ { Ir_wld.Dist.length = nan; count = 1 } ]));
  Alcotest.check_raises "infinite length through map_length"
    (Invalid_argument "Dist.of_bins: lengths must be finite") (fun () ->
      ignore
        (Ir_wld.Dist.map_length
           (fun l -> l *. infinity)
           (Ir_wld.Dist.of_bins [ { Ir_wld.Dist.length = 1.0; count = 1 } ])))

(* [of_columns] keeps canonical columns as [of_bins] would build them and
   refuses any other. *)
let test_dist_of_columns () =
  let b l c = { Ir_wld.Dist.length = l; count = c } in
  let of_columns bins =
    Ir_wld.Dist.of_columns
      (Array.of_list (List.map (fun b -> b.Ir_wld.Dist.length) bins))
      (Array.of_list (List.map (fun b -> b.Ir_wld.Dist.count) bins))
  in
  let canonical = [ b 1.0 3; b 2.5 1; b 4.0 7 ] in
  Alcotest.(check bool) "canonical = of_bins" true
    (Ir_wld.Dist.equal (of_columns canonical) (Ir_wld.Dist.of_bins canonical));
  List.iter
    (fun (name, bins, msg) ->
      Alcotest.check_raises name (Invalid_argument msg) (fun () ->
          ignore (of_columns bins)))
    [
      ("empty bin", [ b 1.0 3; b 2.0 0 ],
       "Dist.of_columns: bins must be non-empty and ascending");
      ("equal lengths", [ b 1.0 3; b 1.0 2 ],
       "Dist.of_columns: bins must be non-empty and ascending");
      ("descending", [ b 2.0 3; b 1.0 2 ],
       "Dist.of_columns: bins must be non-empty and ascending");
      ("negative count", [ b 1.0 (-1) ], "Dist.of_bins: negative count");
      ("NaN length", [ b nan 1 ], "Dist.of_bins: lengths must be > 0");
      ("infinite length", [ b 1.0 1; b infinity 1 ],
       "Dist.of_bins: lengths must be finite");
    ];
  Alcotest.check_raises "columns of unequal size"
    (Invalid_argument "Dist.of_columns: columns differ in length") (fun () ->
      ignore (Ir_wld.Dist.of_columns [| 1.0; 2.0 |] [| 1 |]))

(* The columns are invisible from outside: [bins] gives the records back,
   [of_bins] of them is [equal] to the original, and [show] prints the
   records and the total as it did when the bins were records. *)
let test_dist_columns_round_trip () =
  let d =
    Ir_wld.Dist.of_bins
      [
        { Ir_wld.Dist.length = 2.5; count = 1 };
        { Ir_wld.Dist.length = 1.0; count = 3 };
      ]
  in
  let again = Ir_wld.Dist.of_bins (Array.to_list (Ir_wld.Dist.bins d)) in
  Alcotest.(check bool) "of_bins (bins d) = d" true (Ir_wld.Dist.equal d again);
  Alcotest.(check bool) "a count differs" false
    (Ir_wld.Dist.equal d
       (Ir_wld.Dist.of_bins [ { Ir_wld.Dist.length = 1.0; count = 4 } ]));
  Alcotest.(check string) "show"
    "{ Dist.bins =\n\
    \  [|{ Dist.length = 1.; count = 3 }; { Dist.length = 2.5; count = 1 }|];\n\
    \  total = 4 }"
    (Ir_wld.Dist.show d);
  Alcotest.(check string) "show, empty" "{ Dist.bins = [||]; total = 0 }"
    (Ir_wld.Dist.show (Ir_wld.Dist.of_bins []));
  Alcotest.(check string) "show of the copy" (Ir_wld.Dist.show d)
    (Ir_wld.Dist.show again);
  let p = Ir_wld.Davis.params ~gates:5_000 () in
  let g = Ir_wld.Davis.generate p in
  Alcotest.(check bool) "generated: of_bins (bins d) = d" true
    (Ir_wld.Dist.equal g
       (Ir_wld.Dist.of_bins (Array.to_list (Ir_wld.Dist.bins g))));
  Array.iteri
    (fun i (bin : Ir_wld.Dist.bin) ->
      if
        Ir_wld.Dist.bin_length g i <> bin.length
        || Ir_wld.Dist.bin_count g i <> bin.count
      then Alcotest.failf "bin %d: accessors differ from bins" i)
    (Ir_wld.Dist.bins g)

let test_bunching () =
  let d =
    Ir_wld.Dist.of_bins
      [
        { Ir_wld.Dist.length = 10.0; count = 100 };
        { Ir_wld.Dist.length = 5.0; count = 35 };
      ]
  in
  let bunches = bunch_records @@ Ir_wld.Coarsen.bunch ~bunch_size:40 ~pitch:1.0 d in
  (* 100 -> 20+40+40 (the partial bunch first), 35 -> 35.  The order
     within a bin reaches the DP's boundary indices, so it is pinned. *)
  Alcotest.(check (list int)) "bunch counts in order" [ 20; 40; 40; 35 ]
    (Array.to_list (Array.map (fun b -> b.Ir_wld.Dist.count) bunches));
  Alcotest.(check int) "computed count" 4
    (Ir_wld.Coarsen.bunch_count ~bunch_size:40 d);
  let total = Array.fold_left (fun a b -> a + b.Ir_wld.Dist.count) 0 bunches in
  Alcotest.(check int) "mass conserved" 135 total;
  Alcotest.(check bool) "sizes bounded" true
    (Array.for_all (fun b -> b.Ir_wld.Dist.count <= 40) bunches);
  (* descending lengths *)
  let sorted = ref true in
  Array.iteri
    (fun i b ->
      if i > 0 && b.Ir_wld.Dist.length > bunches.(i - 1).Ir_wld.Dist.length
      then sorted := false)
    bunches;
  Alcotest.(check bool) "descending" true !sorted;
  Alcotest.(check int) "max error bound" 40
    (Ir_wld.Coarsen.max_bunch_error ~bunch_size:40 d);
  (* The paper's bunch size: one 25,000-wire bin. *)
  let one_bin =
    Ir_wld.Dist.of_bins [ { Ir_wld.Dist.length = 3.0; count = 25_000 } ]
  in
  Alcotest.(check (list int)) "25,000 wires at bunch size 10,000"
    [ 5_000; 10_000; 10_000 ]
    (Array.to_list
       (Array.map
          (fun b -> b.Ir_wld.Dist.count)
          (bunch_records @@ Ir_wld.Coarsen.bunch ~bunch_size:10_000 ~pitch:1.0 one_bin)))

(* The bunch count is a ceiling computed without overflow: at a bunch
   size near [max_int], [(c + s - 1) / s] wraps negative. *)
let test_bunch_count_overflow () =
  let d =
    Ir_wld.Dist.of_bins
      [
        { Ir_wld.Dist.length = 1.0; count = 3 };
        { Ir_wld.Dist.length = 2.0; count = max_int };
      ]
  in
  Alcotest.(check int) "max_int bunch size" 2
    (Ir_wld.Coarsen.bunch_count ~bunch_size:max_int d);
  Alcotest.(check int) "saturates" max_int
    (Ir_wld.Coarsen.bunch_count ~bunch_size:1 d);
  Alcotest.(check int) "max_int bunch size, built" 2
    (Array.length (bunch_records @@ Ir_wld.Coarsen.bunch ~bunch_size:max_int ~pitch:1.0 d))

let test_bunch_rejects_bad_pitch () =
  let d = Ir_wld.Dist.of_bins [ { Ir_wld.Dist.length = 2.0; count = 4 } ] in
  List.iter
    (fun (pitch, msg) ->
      Alcotest.check_raises
        (Printf.sprintf "pitch %g" pitch)
        (Invalid_argument msg)
        (fun () -> ignore (bunch_records @@ Ir_wld.Coarsen.bunch ~bunch_size:3 ~pitch d)))
    [
      (0.0, "Dist.of_bins: lengths must be > 0");
      (-1.0, "Dist.of_bins: lengths must be > 0");
      (nan, "Dist.of_bins: lengths must be > 0");
      (infinity, "Dist.of_bins: lengths must be finite");
    ]

let test_binning () =
  (* Footnote 7's example: lengths 5996..6000, counts 3 2 2 1 1 -> one bin
     of count 9 whose (weighted) mean is ~5997.4. *)
  let d =
    Ir_wld.Dist.of_bins
      [
        { Ir_wld.Dist.length = 5996.0; count = 3 };
        { Ir_wld.Dist.length = 5997.0; count = 2 };
        { Ir_wld.Dist.length = 5998.0; count = 2 };
        { Ir_wld.Dist.length = 5999.0; count = 1 };
        { Ir_wld.Dist.length = 6000.0; count = 1 };
      ]
  in
  let binned = Ir_wld.Coarsen.bin ~group:5 d in
  Alcotest.(check int) "one bin" 1 (Ir_wld.Dist.n_bins binned);
  Alcotest.(check int) "mass conserved" 9 (Ir_wld.Dist.total binned);
  check_in_range "weighted mean" ~lo:5997.0 ~hi:5998.0
    (Ir_wld.Dist.l_max binned);
  check_close "total wire length conserved"
    (Ir_wld.Dist.total_wire_length d)
    (Ir_wld.Dist.total_wire_length binned)

let prop_bunch_mass =
  qtest "bunching conserves mass for random distributions"
    QCheck2.Gen.(
      pair (int_range 1 50)
        (list_size (int_range 1 20)
           (pair (float_range 1.0 100.0) (int_range 1 200))))
    (fun (bunch_size, raw) ->
      let bins =
        List.map (fun (l, c) -> { Ir_wld.Dist.length = l; count = c }) raw
      in
      let d = Ir_wld.Dist.of_bins bins in
      let bunches = bunch_records @@ Ir_wld.Coarsen.bunch ~bunch_size ~pitch:1.0 d in
      Array.fold_left (fun a b -> a + b.Ir_wld.Dist.count) 0 bunches
      = Ir_wld.Dist.total d
      && Array.for_all (fun b -> b.Ir_wld.Dist.count <= bunch_size) bunches)

let prop_binning_mass =
  qtest "binning conserves mass and total length"
    QCheck2.Gen.(
      pair (int_range 1 7)
        (list_size (int_range 1 30)
           (pair (float_range 1.0 100.0) (int_range 1 50))))
    (fun (group, raw) ->
      let bins =
        List.map (fun (l, c) -> { Ir_wld.Dist.length = l; count = c }) raw
      in
      let d = Ir_wld.Dist.of_bins bins in
      let binned = Ir_wld.Coarsen.bin ~group d in
      Ir_wld.Dist.total binned = Ir_wld.Dist.total d
      && Ir_phys.Numeric.close ~rtol:1e-9
           (Ir_wld.Dist.total_wire_length binned)
           (Ir_wld.Dist.total_wire_length d))

let prop_davis_total =
  qtest ~count:20 "generated total equals fanout * N for random N"
    QCheck2.Gen.(int_range 1_000 200_000)
    (fun gates ->
      let p = Ir_wld.Davis.params ~gates () in
      let d = Ir_wld.Davis.generate p in
      abs (Ir_wld.Dist.total d - (3 * gates)) <= 1)

let prop_davis_rent_shifts_tail =
  qtest ~count:10 "higher Rent exponent fattens the long-wire tail"
    QCheck2.Gen.(int_range 10_000 100_000)
    (fun gates ->
      let tail p =
        let d = Ir_wld.Davis.generate (Ir_wld.Davis.params ~rent_p:p ~gates ()) in
        float_of_int (Ir_wld.Dist.count_at_least d 20.0)
        /. float_of_int (Ir_wld.Dist.total d)
      in
      tail 0.7 > tail 0.5)

(* ---- Reference kernels ------------------------------------------------ *)

(* The set-up kernels as they were before their per-call constants were
   hoisted: Davis term lists folded through closures, the region-1
   integral and the lower-endpoint powers recomputed for every length,
   bins consed and canonicalized by [Dist.of_bins]; bunching over a
   [Dist.map_length] copy.  The kernels must reproduce them bit for
   bit. *)
module Reference = struct
  module D = Ir_wld.Davis

  let power_integral a l1 l2 =
    if Float.abs (a +. 1.0) < 1e-12 then log (l2 /. l1)
    else (Float.pow l2 (a +. 1.0) -. Float.pow l1 (a +. 1.0)) /. (a +. 1.0)

  let region1_terms (p : D.params) =
    let n = float_of_int p.gates in
    let sqn = sqrt n in
    let e = (2.0 *. p.rent_p) -. 4.0 in
    [ (1.0 /. 3.0, e +. 3.0); (-2.0 *. sqn, e +. 2.0); (2.0 *. n, e +. 1.0) ]

  let region2_terms (p : D.params) =
    let n = float_of_int p.gates in
    let sqn = sqrt n in
    let e = (2.0 *. p.rent_p) -. 4.0 in
    [
      (8.0 *. n *. sqn /. 3.0, e);
      (-4.0 *. n, e +. 1.0);
      (2.0 *. sqn, e +. 2.0);
      (-1.0 /. 3.0, e +. 3.0);
    ]

  let eval_terms terms l =
    List.fold_left (fun acc (c, e) -> acc +. (c *. Float.pow l e)) 0.0 terms

  let integrate_terms terms l1 l2 =
    List.fold_left
      (fun acc (c, e) -> acc +. (c *. power_integral e l1 l2))
      0.0 terms

  let raw_cumulative (p : D.params) l =
    let sqn = sqrt (float_of_int p.gates) in
    let lmax = 2.0 *. sqn in
    let l = Ir_phys.Numeric.clamp ~lo:1.0 ~hi:lmax l in
    let r1 = integrate_terms (region1_terms p) 1.0 (Float.min l sqn) in
    let r2 =
      if l > sqn then integrate_terms (region2_terms p) sqn l else 0.0
    in
    r1 +. r2

  let norm p = D.total p /. raw_cumulative p (D.l_max p)
  let cumulative p l = norm p *. raw_cumulative p l

  let density (p : D.params) l =
    let sqn = sqrt (float_of_int p.gates) in
    if l < 1.0 || l > 2.0 *. sqn then 0.0
    else
      norm p
      *.
      if l <= sqn then eval_terms (region1_terms p) l
      else eval_terms (region2_terms p) l

  let generate p =
    let lmax = D.l_max p in
    let n_lengths = int_of_float (Float.round lmax) in
    let count_up_to l = int_of_float (Float.round (cumulative p l)) in
    let bins = ref [] in
    let first = count_up_to 1.5 in
    if first > 0 then bins := { Ir_wld.Dist.length = 1.0; count = first } :: !bins;
    let prev = ref first in
    for l = 2 to n_lengths do
      let upper = Float.min (float_of_int l +. 0.5) lmax in
      let c = count_up_to upper in
      let here = c - !prev in
      if here > 0 then
        bins := { Ir_wld.Dist.length = float_of_int l; count = here } :: !bins;
      prev := c
    done;
    Ir_wld.Dist.of_bins (List.rev !bins)

  let split_bin ~bunch_size (b : Ir_wld.Dist.bin) =
    let rec loop remaining acc =
      if remaining <= 0 then acc
      else
        let take = min remaining bunch_size in
        loop (remaining - take) ({ b with Ir_wld.Dist.count = take } :: acc)
    in
    loop b.Ir_wld.Dist.count []

  let bunch ~bunch_size ~pitch d =
    let meters = Ir_wld.Dist.map_length (fun l -> l *. pitch) d in
    Array.of_list
      (List.concat_map (split_bin ~bunch_size) (Ir_wld.Dist.to_desc_list meters))
end

(* Bins or bunches as text, each length by its bits. *)
let bins_bits bins =
  String.concat ";"
    (Array.to_list
       (Array.map
          (fun { Ir_wld.Dist.length; count } ->
            Printf.sprintf "%Lx/%d" (Int64.bits_of_float length) count)
          bins))

let prop_davis_matches_reference =
  qtest ~count:60 "Davis generate, cumulative, density = reference, bit for bit"
    QCheck2.Gen.(
      quad (int_range 1 2_000_000)
        (oneof [ return 0.5; float_range 0.05 0.95 ])
        (float_range 0.5 6.0) (float_range 0.0 1.0))
    (fun (gates, rent_p, fan_out, at) ->
      let p = Ir_wld.Davis.params ~rent_p ~fan_out ~gates () in
      let l = 0.5 +. (at *. (Ir_wld.Davis.l_max p +. 1.0)) in
      let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b in
      let got = Ir_wld.Davis.generate p and want = Reference.generate p in
      if bins_bits (Ir_wld.Dist.bins got) <> bins_bits (Ir_wld.Dist.bins want)
         || Ir_wld.Dist.total got <> Ir_wld.Dist.total want
      then QCheck2.Test.fail_reportf "bins differ at %d gates" gates
      else if
        not (same_bits (Ir_wld.Davis.cumulative p l) (Reference.cumulative p l))
      then QCheck2.Test.fail_reportf "cumulative differs at l = %h" l
      else if
        not (same_bits (Ir_wld.Davis.density p l) (Reference.density p l))
      then QCheck2.Test.fail_reportf "density differs at l = %h" l
      else true)

(* Lengths next to each other in float, so that some pairs become equal
   once scaled; pitches include 1.0 and values whose mantissa makes such
   collisions common. *)
let gen_collidable_dist =
  let open QCheck2.Gen in
  let* raw =
    list_size (int_range 1 12)
      (triple (float_range 1.0 100.0) (int_range 1 60) (int_range 0 3))
  in
  let bins =
    List.concat_map
      (fun (l, c, neighbours) ->
        let rec go l k acc =
          if k < 0 then acc
          else go (Float.succ l) (k - 1) ({ Ir_wld.Dist.length = l; count = c } :: acc)
        in
        go l neighbours [])
      raw
  in
  return (Ir_wld.Dist.of_bins bins)

let prop_bunch_matches_reference =
  qtest ~count:300 "pitch-scaled bunch = bunch of the scaled copy, bit for bit"
    QCheck2.Gen.(
      triple
        (oneof [ int_range 1 50; return max_int ])
        (oneof
           [
             return 1.0; float_range 1.0 2.0; float_range 1e-7 1e-6;
             return 2.1e-7;
           ])
        gen_collidable_dist)
    (fun (bunch_size, pitch, d) ->
      let got = bunch_records @@ Ir_wld.Coarsen.bunch ~bunch_size ~pitch d in
      let want = Reference.bunch ~bunch_size ~pitch d in
      bins_bits got = bins_bits want
      || QCheck2.Test.fail_reportf "bunch_size %d pitch %h:\n%s\n%s" bunch_size
           pitch (bins_bits got) (bins_bits want))

(* A concrete collision: the first length above 1.5 whose successor
   scales to the same float at pitch 1.5.  The two bins merge into one,
   as [Dist.of_bins] merges them, and bunch as one bin. *)
let test_bunch_scaled_collision () =
  let pitch = 1.5 in
  let rec find l n =
    if n = 0 then Alcotest.fail "no colliding neighbours found"
    else if l *. pitch = Float.succ l *. pitch then l
    else find (Float.succ l) (n - 1)
  in
  let l = find 1.5 10_000 in
  let d =
    Ir_wld.Dist.of_bins
      [
        { Ir_wld.Dist.length = l; count = 3 };
        { Ir_wld.Dist.length = Float.succ l; count = 4 };
      ]
  in
  let got = bunch_records @@ Ir_wld.Coarsen.bunch ~bunch_size:5 ~pitch d in
  Alcotest.(check (list int)) "one merged bin: 2 then 5" [ 2; 5 ]
    (Array.to_list (Array.map (fun b -> b.Ir_wld.Dist.count) got));
  Alcotest.(check string) "= reference"
    (bins_bits (Reference.bunch ~bunch_size:5 ~pitch d))
    (bins_bits got)

let test_io_roundtrip () =
  let d =
    Ir_wld.Dist.of_bins
      [
        { Ir_wld.Dist.length = 1.0; count = 100 };
        { Ir_wld.Dist.length = 2.5; count = 7 };
        { Ir_wld.Dist.length = 40.0; count = 1 };
      ]
  in
  match Ir_wld.Io.of_string (Ir_wld.Io.to_string d) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok d2 ->
      Alcotest.(check bool) "roundtrip equal" true (Ir_wld.Dist.equal d d2)

let test_io_parsing () =
  (match Ir_wld.Io.of_string "length,count\n# comment\n\n3.5,4\n1,2\n" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok d ->
      Alcotest.(check int) "total" 6 (Ir_wld.Dist.total d);
      check_close "sorted ascending" 1.0 (Ir_wld.Dist.l_min d));
  (match Ir_wld.Io.of_string "1,2\nbogus line\n" with
  | Error e ->
      Alcotest.(check bool) "error names the line" true
        (Astring_contains.contains e "line 2")
  | Ok _ -> Alcotest.fail "expected a parse error");
  match Ir_wld.Io.of_string "1,-3\n" with
  | Error e ->
      Alcotest.(check bool) "negative count rejected" true
        (Astring_contains.contains e "negative")
  | Ok _ -> Alcotest.fail "expected negative-count error"

(* Every malformed-entry failure mode the serving layer relies on: the
   parser is the trust boundary for client-supplied WLDs, so each
   rejection must carry the line number (and file name, when given)
   rather than silently repairing the data. *)
let test_io_failure_modes () =
  let rejected what input substrings =
    match Ir_wld.Io.of_string input with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error e ->
        List.iter
          (fun s ->
            Alcotest.(check bool)
              (Printf.sprintf "%s error mentions %S (got %S)" what s e)
              true
              (Astring_contains.contains e s))
          substrings
  in
  rejected "three-field line" "1,2\n3,4,5\n" [ "line 2" ];
  rejected "missing count" "1,2\n7\n" [ "line 2" ];
  (* unparsable fields on line 1 are the one tolerated header; from
     line 2 on they are errors *)
  rejected "unparsable length" "1,2\nabc,2\n" [ "line 2" ];
  rejected "fractional count" "1,2\n3,2.5\n" [ "line 2" ];
  rejected "negative count" "1,2\n3,-4\n" [ "line 2"; "negative" ];
  rejected "negative length" "-1,2\n" [ "line 1" ];
  rejected "zero length" "0,2\n" [ "line 1" ];
  rejected "NaN length" "nan,2\n" [ "line 1" ];
  rejected "infinite length" "inf,2\n" [ "line 1" ];
  rejected "empty input" "" [ "no data" ];
  rejected "comments only" "# nothing\n\n# here\n" [ "no data" ]

let test_io_strict_mode () =
  (* Non-monotone data is legal by default (Dist.of_bins sorts and
     merges) but rejected under [strict] — the serving layer treats an
     out-of-order upload as corruption, not as an encoding choice. *)
  (match Ir_wld.Io.of_string "3.5,4\n1,2\n" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "default mode rejected unsorted data: %s" e);
  (match Ir_wld.Io.of_string ~strict:true "3.5,4\n1,2\n" with
  | Ok _ -> Alcotest.fail "strict mode accepted unsorted data"
  | Error e ->
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (Printf.sprintf "strict error mentions %S (got %S)" s e)
            true
            (Astring_contains.contains e s))
        [ "line 1"; "line 2" ]);
  (match Ir_wld.Io.of_string ~strict:true "1,2\n1,3\n" with
  | Ok _ -> Alcotest.fail "strict mode accepted a duplicated length"
  | Error _ -> ());
  (* a header line and sorted data are fine under strict *)
  (match Ir_wld.Io.of_string ~strict:true "length,count\n1,2\n3.5,4\n" with
  | Ok d -> Alcotest.(check int) "strict parse total" 6 (Ir_wld.Dist.total d)
  | Error e -> Alcotest.failf "strict rejected valid input: %s" e);
  (* the [name] prefix lands in front of the line number *)
  match Ir_wld.Io.of_string ~name:"upload.csv" "1,-2\n" with
  | Ok _ -> Alcotest.fail "negative count accepted"
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "named error %S" e)
        true
        (Astring_contains.contains e "upload.csv: line 1")

let test_io_files () =
  let path = Filename.temp_file "wld" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let d = Ir_wld.Davis.generate (Ir_wld.Davis.params ~gates:1000 ()) in
      (match Ir_wld.Io.save path d with
      | Error e -> Alcotest.failf "save failed: %s" e
      | Ok () -> ());
      match Ir_wld.Io.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok d2 ->
          Alcotest.(check bool) "file roundtrip" true (Ir_wld.Dist.equal d d2));
  match Ir_wld.Io.load "/nonexistent/really/not/here.csv" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected load error"

let prop_io_roundtrip =
  qtest "CSV roundtrip preserves any distribution"
    QCheck2.Gen.(
      list_size (int_range 1 30)
        (pair (float_range 0.001 5000.0) (int_range 1 100000)))
    (fun raw ->
      let d =
        Ir_wld.Dist.of_bins
          (List.map (fun (l, c) -> { Ir_wld.Dist.length = l; count = c }) raw)
      in
      match Ir_wld.Io.of_string (Ir_wld.Io.to_string d) with
      | Ok d2 -> Ir_wld.Dist.equal d d2
      | Error _ -> false)

(* Client-supplied WLDs go through the strict parser: arbitrary bytes
   and single-byte edits of valid CSVs must parse or be refused with a
   message, never raise. *)
let prop_io_strict_fuzz =
  fuzz_parser "strict CSV parser never raises on fuzzed input"
    QCheck2.Gen.(
      map
        (fun raw ->
          Ir_wld.Io.to_string
            (Ir_wld.Dist.of_bins
               (List.map
                  (fun (l, c) -> { Ir_wld.Dist.length = l; count = c })
                  raw)))
        (list_size (int_range 1 8)
           (pair (float_range 0.001 5000.0) (int_range 1 100000))))
    (Ir_wld.Io.of_string ~strict:true)

let test_stats_summary () =
  let d =
    Ir_wld.Dist.of_bins
      [
        { Ir_wld.Dist.length = 1.0; count = 50 };
        { Ir_wld.Dist.length = 2.0; count = 30 };
        { Ir_wld.Dist.length = 10.0; count = 20 };
      ]
  in
  let s = Ir_wld.Stats.summary d in
  Alcotest.(check int) "total" 100 s.total;
  check_close "mean" ((50.0 +. 60.0 +. 200.0) /. 100.0) s.mean;
  check_close "median" 1.0 s.median;
  check_close "p90" 10.0 (Ir_wld.Stats.quantile d 0.9);
  check_close "p50 boundary" 1.0 (Ir_wld.Stats.quantile d 0.5);
  check_close "p51" 2.0 (Ir_wld.Stats.quantile d 0.51);
  check_close "total length" 310.0 s.total_length;
  Alcotest.(check bool) "std positive" true (s.std > 0.0);
  Alcotest.check_raises "bad q"
    (Invalid_argument "Stats.quantile: q must lie in (0, 1]") (fun () ->
      ignore (Ir_wld.Stats.quantile d 0.0))

let test_stats_histogram () =
  let d = Ir_wld.Davis.generate (Ir_wld.Davis.params ~gates:10_000 ()) in
  let h = Ir_wld.Stats.histogram ~bins:8 d in
  Alcotest.(check int) "bin count" 8 (List.length h);
  let total = List.fold_left (fun a (_, _, c) -> a + c) 0 h in
  Alcotest.(check int) "mass conserved" (Ir_wld.Dist.total d) total;
  (* contiguous coverage *)
  let rec contiguous = function
    | (_, hi, _) :: (((lo, _, _) :: _) as rest) ->
        Ir_phys.Numeric.close hi lo && contiguous rest
    | _ -> true
  in
  Alcotest.(check bool) "contiguous edges" true (contiguous h);
  let txt = Format.asprintf "%a" Ir_wld.Stats.pp_histogram d in
  Alcotest.(check bool) "renders bars" true
    (Astring_contains.contains txt "#")

let prop_quantile_monotone =
  qtest "quantiles are monotone in q"
    QCheck2.Gen.(
      list_size (int_range 1 20)
        (pair (float_range 1.0 500.0) (int_range 1 100)))
    (fun raw ->
      let d =
        Ir_wld.Dist.of_bins
          (List.map (fun (l, c) -> { Ir_wld.Dist.length = l; count = c }) raw)
      in
      let q25 = Ir_wld.Stats.quantile d 0.25 in
      let q50 = Ir_wld.Stats.quantile d 0.5 in
      let q99 = Ir_wld.Stats.quantile d 0.99 in
      q25 <= q50 && q50 <= q99
      && q99 <= Ir_wld.Dist.l_max d
      && Ir_wld.Stats.quantile d 1.0 = Ir_wld.Dist.l_max d)

let () =
  Alcotest.run "wld"
    [
      ( "davis",
        [
          Alcotest.test_case "params" `Quick test_davis_params;
          Alcotest.test_case "density support" `Quick test_davis_density_support;
          Alcotest.test_case "density continuity" `Quick
            test_davis_density_continuity;
          Alcotest.test_case "cumulative" `Quick test_davis_cumulative;
          Alcotest.test_case "generate 1M" `Quick test_davis_generate;
          Alcotest.test_case "generated bins are pinned" `Quick
            test_davis_generate_pinned;
          Alcotest.test_case "tail fractions" `Quick test_davis_tail_fractions;
          Alcotest.test_case "generate meters" `Quick test_generate_meters;
          prop_davis_total;
          prop_davis_matches_reference;
          prop_davis_rent_shifts_tail;
        ] );
      ( "dist",
        [
          Alcotest.test_case "basics" `Quick test_dist_basics;
          Alcotest.test_case "validation" `Quick test_dist_validation;
          Alcotest.test_case "of_columns takes canonical bins only" `Quick
            test_dist_of_columns;
          Alcotest.test_case "columns round trip: bins, equal, show" `Quick
            test_dist_columns_round_trip;
          Alcotest.test_case "infinite lengths rejected" `Quick
            test_dist_infinite_length;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary/quantiles" `Quick test_stats_summary;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          prop_quantile_monotone;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "parsing" `Quick test_io_parsing;
          Alcotest.test_case "failure modes" `Quick test_io_failure_modes;
          Alcotest.test_case "strict mode" `Quick test_io_strict_mode;
          Alcotest.test_case "files" `Quick test_io_files;
          prop_io_roundtrip;
          prop_io_strict_fuzz;
        ] );
      ( "coarsen",
        [
          Alcotest.test_case "bunching" `Quick test_bunching;
          Alcotest.test_case "bunch count without overflow" `Quick
            test_bunch_count_overflow;
          Alcotest.test_case "bad pitch rejected" `Quick
            test_bunch_rejects_bad_pitch;
          Alcotest.test_case "lengths equal after scaling merge" `Quick
            test_bunch_scaled_collision;
          prop_bunch_matches_reference;
          Alcotest.test_case "binning (footnote 7)" `Quick test_binning;
          prop_bunch_mass;
          prop_binning_mass;
        ] );
    ]
