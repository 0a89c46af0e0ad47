(* Tests for the Ir_obs observability registry: counter and span basics,
   snapshot/reset semantics, report rendering, lost-update safety under
   concurrent domains, and the cross-domain counter-determinism
   invariant — running the same rank computations at jobs=1 and jobs=4
   must yield byte-identical counter snapshots.

   Oversubscription is enabled so the jobs=4 legs really interleave
   domains even on a one-core box — that contention is exactly what the
   determinism tests exist to exercise. *)
let () = Ir_exec.set_allow_oversubscribe true

let test_counter_basics () =
  let c = Ir_obs.counter "test/basics_counter" in
  let before = Ir_obs.value c in
  Ir_obs.incr c;
  Ir_obs.add c 41;
  Alcotest.(check int) "incr + add" (before + 42) (Ir_obs.value c);
  (* Same name resolves to the same underlying counter. *)
  Ir_obs.incr (Ir_obs.counter "test/basics_counter");
  Alcotest.(check int) "same name, same counter" (before + 43)
    (Ir_obs.value c)

let test_span_basics () =
  let s = Ir_obs.span "test/basics_span" in
  Ir_obs.record s 0.25;
  Ir_obs.record s 0.5;
  Alcotest.(check int) "time returns the thunk's value" 7
    (Ir_obs.time s (fun () -> 7));
  (match Ir_obs.find_span (Ir_obs.snapshot ()) "test/basics_span" with
  | None -> Alcotest.fail "span missing from snapshot"
  | Some st ->
      Alcotest.(check int) "calls" 3 st.Ir_obs.calls;
      Helpers.check_in_range "seconds" ~lo:0.74 ~hi:2.0 st.Ir_obs.seconds);
  (* A raising thunk still records its call. *)
  (try ignore (Ir_obs.time s (fun () -> failwith "boom") : int)
   with Failure _ -> ());
  match Ir_obs.find_span (Ir_obs.snapshot ()) "test/basics_span" with
  | None -> Alcotest.fail "span missing from snapshot"
  | Some st -> Alcotest.(check int) "raise still counted" 4 st.Ir_obs.calls

let test_snapshot_sorted_and_find () =
  ignore (Ir_obs.counter "test/zz_last");
  ignore (Ir_obs.counter "test/aa_first");
  let snap = Ir_obs.snapshot () in
  let names = List.map fst snap.Ir_obs.counters in
  Alcotest.(check (list string))
    "counters name-sorted"
    (List.sort compare names)
    names;
  let span_names = List.map fst snap.Ir_obs.spans in
  Alcotest.(check (list string))
    "spans name-sorted"
    (List.sort compare span_names)
    span_names;
  Alcotest.(check bool) "find_counter present" true
    (Ir_obs.find_counter snap "test/aa_first" <> None);
  Alcotest.(check (option int))
    "find_counter absent" None
    (Ir_obs.find_counter snap "test/never_registered")

let test_reset_keeps_registrations () =
  let c = Ir_obs.counter "test/reset_counter" in
  let s = Ir_obs.span "test/reset_span" in
  Ir_obs.add c 5;
  Ir_obs.record s 1.0;
  Ir_obs.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Ir_obs.value c);
  let snap = Ir_obs.snapshot () in
  Alcotest.(check (option int))
    "registration survives reset" (Some 0)
    (Ir_obs.find_counter snap "test/reset_counter");
  (match Ir_obs.find_span snap "test/reset_span" with
  | None -> Alcotest.fail "span registration lost across reset"
  | Some st ->
      Alcotest.(check int) "span calls zeroed" 0 st.Ir_obs.calls;
      Helpers.check_close "span seconds zeroed" 0.0 st.Ir_obs.seconds);
  (* Handles cached before the reset keep working. *)
  Ir_obs.incr c;
  Alcotest.(check int) "cached handle still live" 1 (Ir_obs.value c)

let test_report_contents () =
  Ir_obs.reset ();
  Ir_obs.add (Ir_obs.counter "test/report_counter") 12345;
  Ir_obs.record (Ir_obs.span "test/report_span") 0.125;
  let text = Format.asprintf "%a" Ir_obs.pp_report (Ir_obs.snapshot ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "report mentions %s" needle)
        true
        (Astring_contains.contains text needle))
    [ "test/report_counter"; "12345"; "test/report_span" ]

let test_gauge_basics () =
  let g = Ir_obs.gauge "test/basics_gauge" in
  Ir_obs.reset ();
  Alcotest.(check int) "starts at zero" 0 (Ir_obs.gauge_value g);
  Ir_obs.set_max g 7;
  Ir_obs.set_max g 3;
  Alcotest.(check int) "set_max keeps the maximum" 7 (Ir_obs.gauge_value g);
  Ir_obs.set_max g 11;
  Alcotest.(check int) "larger value wins" 11 (Ir_obs.gauge_value g);
  (* Same name resolves to the same underlying gauge. *)
  Ir_obs.set_max (Ir_obs.gauge "test/basics_gauge") 13;
  Alcotest.(check int) "same name, same gauge" 13 (Ir_obs.gauge_value g);
  let snap = Ir_obs.snapshot () in
  Alcotest.(check (option int))
    "find_gauge present" (Some 13)
    (Ir_obs.find_gauge snap "test/basics_gauge");
  Alcotest.(check (option int))
    "find_gauge absent" None
    (Ir_obs.find_gauge snap "test/never_registered_gauge");
  let names = List.map fst snap.Ir_obs.gauges in
  Alcotest.(check (list string))
    "gauges name-sorted"
    (List.sort compare names)
    names;
  let text = Format.asprintf "%a" Ir_obs.pp_report snap in
  Alcotest.(check bool) "report mentions the gauge" true
    (Astring_contains.contains text "test/basics_gauge");
  Ir_obs.reset ();
  Alcotest.(check int) "reset zeroes gauges" 0 (Ir_obs.gauge_value g);
  Alcotest.(check (option int))
    "registration survives reset" (Some 0)
    (Ir_obs.find_gauge (Ir_obs.snapshot ()) "test/basics_gauge")

let test_multi_domain_gauge () =
  (* Concurrent set_max races must never lose the global maximum. *)
  let g = Ir_obs.gauge "test/domains_gauge" in
  Ir_obs.reset ();
  let worker lo () =
    for v = lo to lo + 10_000 do
      Ir_obs.set_max g v
    done
  in
  let domains =
    List.init 4 (fun d -> Domain.spawn (worker (1 + (d * 5_000))))
  in
  worker 0 ();
  List.iter Domain.join domains;
  Alcotest.(check int) "maximum survives the race"
    (1 + (3 * 5_000) + 10_000)
    (Ir_obs.gauge_value g)

let test_multi_domain_increments () =
  (* Four spawned domains plus the caller hammer one counter; Atomic
     adds must not lose updates. *)
  let c = Ir_obs.counter "test/domains_counter" in
  let before = Ir_obs.value c in
  let per_domain = 25_000 in
  let worker () =
    for _ = 1 to per_domain do
      Ir_obs.incr c
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost updates"
    (before + (5 * per_domain))
    (Ir_obs.value c)

(* The tentpole invariant: outside the [exec/sched/] carve-out, every
   counter in the codebase counts a scheduling-independent quantity, so
   a rank sweep at jobs=1 and the same sweep at jobs=4 must produce
   identical counter snapshots once {!Ir_obs.filter_out} strips the
   scheduler's own counters (steal tallies differ by construction).
   Random instances exercise Rank_dp (Pareto inserts, dominated drops,
   truncations, search probes) and Greedy_fill underneath it. *)
let test_counters_deterministic_across_jobs () =
  let rand = Random.State.make [| 0x1A0B5 |] in
  let instances = QCheck2.Gen.generate ~rand ~n:8 Helpers.gen_instance in
  let problems =
    Array.of_list (List.map (fun i -> i.Helpers.problem) instances)
  in
  let counters_at jobs =
    Ir_obs.reset ();
    ignore
      (Ir_exec.parallel_map ~jobs Ir_core.Rank.compute problems
        : Ir_core.Outcome.t array);
    (Ir_obs.filter_out ~prefix:"exec/sched/" (Ir_obs.snapshot ()))
      .Ir_obs.counters
  in
  let seq = counters_at 1 in
  let par = counters_at 4 in
  Alcotest.(check (list (pair string int)))
    "jobs=1 and jobs=4 counters identical" seq par;
  Alcotest.(check bool) "counters are non-trivial" true
    (List.exists (fun (_, v) -> v > 0) seq)

let test_filter_out () =
  Ir_obs.reset ();
  Ir_obs.add (Ir_obs.counter "exec/sched/steals") 7;
  Ir_obs.add (Ir_obs.counter "test/filter_kept") 3;
  let snap = Ir_obs.snapshot () in
  let stripped = Ir_obs.filter_out ~prefix:"exec/sched/" snap in
  Alcotest.(check (option int))
    "stripped counter gone" None
    (Ir_obs.find_counter stripped "exec/sched/steals");
  Alcotest.(check (option int))
    "other counters survive" (Some 3)
    (Ir_obs.find_counter stripped "test/filter_kept");
  (* filter and filter_out partition the snapshot. *)
  let kept = Ir_obs.filter ~prefix:"exec/sched/" snap in
  Alcotest.(check int) "partition: counter counts add up"
    (List.length snap.Ir_obs.counters)
    (List.length kept.Ir_obs.counters
    + List.length stripped.Ir_obs.counters)

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "span basics" `Quick test_span_basics;
          Alcotest.test_case "snapshot sorted, find" `Quick
            test_snapshot_sorted_and_find;
          Alcotest.test_case "reset keeps registrations" `Quick
            test_reset_keeps_registrations;
          Alcotest.test_case "report contents" `Quick test_report_contents;
          Alcotest.test_case "gauge basics" `Quick test_gauge_basics;
          Alcotest.test_case "filter_out strips a namespace" `Quick
            test_filter_out;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "multi-domain increments" `Quick
            test_multi_domain_increments;
          Alcotest.test_case "multi-domain gauge max" `Quick
            test_multi_domain_gauge;
          Alcotest.test_case "counters deterministic across jobs" `Slow
            test_counters_deterministic_across_jobs;
        ] );
    ]
