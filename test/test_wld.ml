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

let test_bunching () =
  let d =
    Ir_wld.Dist.of_bins
      [
        { Ir_wld.Dist.length = 10.0; count = 100 };
        { Ir_wld.Dist.length = 5.0; count = 35 };
      ]
  in
  let bunches = Ir_wld.Coarsen.bunch ~bunch_size:40 d in
  (* 100 -> 40+40+20 (order within equal lengths irrelevant), 35 -> 35 *)
  Alcotest.(check int) "bunch count" 4 (Array.length bunches);
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
    (Ir_wld.Coarsen.max_bunch_error ~bunch_size:40 d)

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
      let bunches = Ir_wld.Coarsen.bunch ~bunch_size d in
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
          Alcotest.test_case "tail fractions" `Quick test_davis_tail_fractions;
          Alcotest.test_case "generate meters" `Quick test_generate_meters;
          prop_davis_total;
          prop_davis_rent_shifts_tail;
        ] );
      ( "dist",
        [
          Alcotest.test_case "basics" `Quick test_dist_basics;
          Alcotest.test_case "validation" `Quick test_dist_validation;
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
          Alcotest.test_case "binning (footnote 7)" `Quick test_binning;
          prop_bunch_mass;
          prop_binning_mass;
        ] );
    ]
