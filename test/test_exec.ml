(* Tests for the Ir_exec domain pool: ordering determinism across worker
   counts, edge cases (empty input, more workers than items), exception
   propagation, and the jobs-resolution chain.

   The suite opts into oversubscription: its multi-worker cases exist to
   exercise real cross-domain scheduling (and to pin the historical
   pool-stats shape), which the hardware clamp would otherwise collapse
   to a single worker on a small CI box. *)
let () = Ir_exec.set_allow_oversubscribe true

let check_int_array msg expected actual =
  Alcotest.(check (array int)) msg expected actual

let test_hardware_clamp () =
  (* With oversubscription off (the default), an outsized [?jobs] request
     spawns at most [hardware_jobs] workers; results are unaffected. *)
  Ir_exec.set_allow_oversubscribe false;
  Fun.protect ~finally:(fun () -> Ir_exec.set_allow_oversubscribe true)
  @@ fun () ->
  let xs = Array.init 64 (fun i -> i) in
  check_int_array "clamped run matches" (Array.map (fun x -> x + 1) xs)
    (Ir_exec.parallel_map ~jobs:16 (fun x -> x + 1) xs);
  match Ir_exec.last_pool_stats () with
  | None -> Alcotest.fail "no pool stats"
  | Some st ->
      Alcotest.(check int)
        "workers clamped to hardware"
        (min 16 (Ir_exec.hardware_jobs ()))
        st.Ir_exec.jobs

let test_matches_sequential () =
  let xs = Array.init 57 (fun i -> i) in
  let f x = (x * 37) mod 101 in
  let expected = Array.map f xs in
  List.iter
    (fun jobs ->
      check_int_array
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Ir_exec.parallel_map ~jobs f xs))
    [ 1; 2; 4; 9 ]

let test_empty () =
  check_int_array "empty input" [||]
    (Ir_exec.parallel_map ~jobs:4 (fun x -> x) [||]);
  Alcotest.(check (list int))
    "empty list" []
    (Ir_exec.parallel_list_map ~jobs:4 (fun x -> x) [])

let test_jobs_exceed_items () =
  (* More workers than elements: jobs is clamped to the item count, so no
     domain spins on an empty range. *)
  check_int_array "jobs=16 over 3 items" [| 2; 4; 6 |]
    (Ir_exec.parallel_map ~jobs:16 (fun x -> 2 * x) [| 1; 2; 3 |])

let test_singleton_sequential () =
  (* jobs=1 must not spawn: detectable because Domain.self () is stable. *)
  let self = Domain.self () in
  let seen = ref None in
  ignore
    (Ir_exec.parallel_map ~jobs:1
       (fun x ->
         seen := Some (Domain.self ());
         x)
       [| 1; 2; 3 |]);
  Alcotest.(check bool) "ran on the calling domain" true (!seen = Some self)

exception Boom of int

let test_exception_propagation () =
  (* Multiple elements raise; the lowest-indexed exception must win,
     independent of scheduling. *)
  List.iter
    (fun jobs ->
      match
        Ir_exec.parallel_map ~jobs
          (fun x -> if x mod 3 = 2 then raise (Boom x) else x)
          (Array.init 20 (fun i -> i))
      with
      | _ -> Alcotest.failf "jobs=%d: expected Boom" jobs
      | exception Boom i ->
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d lowest index wins" jobs)
            2 i)
    [ 1; 2; 4 ]

let test_chunked_equivalence () =
  let xs = Array.init 100 (fun i -> i) in
  let f x = x * x in
  let expected = Array.map f xs in
  List.iter
    (fun chunk ->
      check_int_array
        (Printf.sprintf "chunk=%d" chunk)
        expected
        (Ir_exec.parallel_map_chunked ~jobs:4 ~chunk f xs))
    [ 1; 3; 7; 100; 1000 ];
  check_int_array "default chunk" expected
    (Ir_exec.parallel_map_chunked ~jobs:4 f xs);
  Alcotest.check_raises "chunk must be positive"
    (Invalid_argument "Ir_exec.parallel_map_chunked: chunk must be > 0")
    (fun () ->
      ignore (Ir_exec.parallel_map_chunked ~jobs:2 ~chunk:0 f xs))

let test_list_map_order () =
  Alcotest.(check (list string))
    "order preserved"
    [ "0"; "1"; "2"; "3"; "4" ]
    (Ir_exec.parallel_list_map ~jobs:3 string_of_int [ 0; 1; 2; 3; 4 ])

let test_jobs_resolution () =
  (* override > IA_RANK_JOBS > recommended, and the override clamps to
     >= 1.  Restore a clean state afterwards: the suite shares the
     process-global default. *)
  Fun.protect
    ~finally:(fun () ->
      Ir_exec.set_default_jobs None;
      Unix.putenv "IA_RANK_JOBS" "")
    (fun () ->
      Ir_exec.set_default_jobs None;
      Unix.putenv "IA_RANK_JOBS" "";
      Alcotest.(check int)
        "no override, no env" (Ir_exec.recommended_jobs ())
        (Ir_exec.default_jobs ());
      Unix.putenv "IA_RANK_JOBS" "6";
      Alcotest.(check int) "env honoured" 6 (Ir_exec.default_jobs ());
      Unix.putenv "IA_RANK_JOBS" "garbage";
      Alcotest.(check int)
        "bad env ignored" (Ir_exec.recommended_jobs ())
        (Ir_exec.default_jobs ());
      Unix.putenv "IA_RANK_JOBS" "6";
      Ir_exec.set_default_jobs (Some 3);
      Alcotest.(check int) "override beats env" 3 (Ir_exec.default_jobs ());
      Ir_exec.set_default_jobs (Some 0);
      Alcotest.(check int) "override clamps to 1" 1 (Ir_exec.default_jobs ()))

let test_with_default_jobs () =
  Fun.protect
    ~finally:(fun () ->
      Ir_exec.set_default_jobs None;
      Unix.putenv "IA_RANK_JOBS" "")
    (fun () ->
      Unix.putenv "IA_RANK_JOBS" "";
      (* restores the previous override, not merely None *)
      Ir_exec.set_default_jobs (Some 5);
      let inside =
        Ir_exec.with_default_jobs (Some 2) (fun () ->
            Ir_exec.default_jobs ())
      in
      Alcotest.(check int) "scoped override visible" 2 inside;
      Alcotest.(check int) "outer override restored" 5
        (Ir_exec.default_jobs ());
      (* restores on exceptions too *)
      (try
         Ir_exec.with_default_jobs (Some 3) (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check int) "restored after raise" 5 (Ir_exec.default_jobs ()))

let test_recommended_positive () =
  Alcotest.(check bool) "at least one worker" true
    (Ir_exec.recommended_jobs () >= 1)

let test_pool_stats_accounting () =
  let n = 57 in
  let xs = Array.init n (fun i -> i) in
  ignore (Ir_exec.parallel_map ~jobs:4 (fun x -> 2 * x) xs);
  (match Ir_exec.last_pool_stats () with
  | None -> Alcotest.fail "no stats after a parallel run"
  | Some st ->
      Alcotest.(check int) "jobs recorded" 4 st.Ir_exec.jobs;
      Alcotest.(check int) "one units slot per worker" 4
        (Array.length st.Ir_exec.units);
      Alcotest.(check int) "one busy slot per worker" 4
        (Array.length st.Ir_exec.busy_seconds);
      Alcotest.(check int) "per-worker units sum to n" n
        (Array.fold_left ( + ) 0 st.Ir_exec.units);
      Array.iter
        (fun u ->
          Alcotest.(check bool) "units non-negative" true (u >= 0))
        st.Ir_exec.units;
      Alcotest.(check bool) "wall time non-negative" true
        (st.Ir_exec.wall_seconds >= 0.0);
      let p = Ir_exec.effective_parallelism st in
      Alcotest.(check bool) "effective parallelism sane" true
        (p >= 0.0 && p <= float_of_int st.Ir_exec.jobs +. 1.0));
  (* The jobs = 1 path must produce the degenerate single-worker record
     so callers can report uniformly. *)
  ignore (Ir_exec.parallel_map ~jobs:1 (fun x -> x) xs);
  match Ir_exec.last_pool_stats () with
  | None -> Alcotest.fail "no stats after a sequential run"
  | Some st ->
      Alcotest.(check int) "seq jobs" 1 st.Ir_exec.jobs;
      check_int_array "seq units" [| n |] st.Ir_exec.units

(* ---- work-stealing scheduler invariants ------------------------------ *)

(* Differential oracle for the weighted scheduler: whatever the weights,
   worker count and steal schedule, [parallel_group_map] must return the
   plain sequential map, and the deterministic counters (everything
   outside exec/sched/) must be byte-identical between the jobs=1 and
   jobs=4 legs.  Weights are skewed on purpose: a 0 draw becomes a giant
   group, the shape that forces thieves onto other queues. *)
let group_counters jobs weights =
  Ir_obs.reset ();
  let work = Ir_obs.counter "test/group_work" in
  let out =
    Ir_exec.parallel_group_map ~jobs
      ~weight:(fun (_, w) -> w)
      (fun (i, w) ->
        Ir_obs.add work ((i * 7) + w);
        (i * 31) + w)
      (Array.of_list (List.mapi (fun i w -> (i, w)) weights))
  in
  let counters =
    (Ir_obs.filter_out ~prefix:"exec/sched/" (Ir_obs.snapshot ()))
      .Ir_obs.counters
  in
  (out, counters)

let prop_group_map_differential =
  Helpers.qtest ~count:60 "group map: stealing == sequential"
    QCheck2.Gen.(
      list_size (int_range 0 40)
        (map (fun w -> if w = 0 then 512 else w) (int_range 0 20)))
    (fun weights ->
      let seq_out, seq_counters = group_counters 1 weights in
      let par_out, par_counters = group_counters 4 weights in
      seq_out = par_out && seq_counters = par_counters)

let test_group_map_one_giant () =
  (* Frozen adversarial instance: one group outweighs the rest of the
     workload combined, so every other worker drains its own queue and
     must steal to stay busy — the exact shape that regressed before the
     work-stealing scheduler. *)
  let weights =
    Array.to_list (Array.init 33 (fun i -> if i = 0 then 512 else 1))
  in
  let seq_out, seq_counters = group_counters 1 weights in
  let par_out, par_counters = group_counters 4 weights in
  Alcotest.(check (array int)) "one-giant results identical" seq_out par_out;
  Alcotest.(check (list (pair string int)))
    "one-giant counters identical" seq_counters par_counters

let test_steals_accounted () =
  ignore
    (Ir_exec.parallel_map ~jobs:4 (fun x -> x) (Array.init 32 Fun.id));
  (match Ir_exec.last_pool_stats () with
  | None -> Alcotest.fail "no stats"
  | Some st ->
      Alcotest.(check int) "one steals slot per worker" 4
        (Array.length st.Ir_exec.steals);
      Array.iter
        (fun s -> Alcotest.(check bool) "steals non-negative" true (s >= 0))
        st.Ir_exec.steals);
  ignore (Ir_exec.parallel_map ~jobs:1 (fun x -> x) (Array.init 3 Fun.id));
  match Ir_exec.last_pool_stats () with
  | None -> Alcotest.fail "no stats"
  | Some st ->
      check_int_array "sequential run steals nothing" [| 0 |]
        st.Ir_exec.steals

let test_clamp_counter () =
  (* With oversubscription off, an over-hardware request must bump the
     exec/sched/jobs_clamped counter (satellite of the scheduler PR: the
     clamp used to be completely silent). *)
  Ir_exec.set_allow_oversubscribe false;
  Fun.protect ~finally:(fun () -> Ir_exec.set_allow_oversubscribe true)
  @@ fun () ->
  let clamped = Ir_obs.counter "exec/sched/jobs_clamped" in
  let before = Ir_obs.value clamped in
  let jobs = Ir_exec.hardware_jobs () + 3 in
  ignore (Ir_exec.parallel_map ~jobs (fun x -> x) (Array.init 16 Fun.id));
  Alcotest.(check int) "clamp counted" (before + 1) (Ir_obs.value clamped);
  (* An in-range request does not count as a clamp. *)
  ignore (Ir_exec.parallel_map ~jobs:1 (fun x -> x) (Array.init 4 Fun.id));
  Alcotest.(check int) "no spurious count" (before + 1)
    (Ir_obs.value clamped)

let test_pool_heap_restore () =
  (* The 4M-word pool minor heap is scoped: once the outermost scope
     drains, the pre-pool size must be back (satellite of the scheduler
     PR — previously a one-way ratchet). *)
  let before = (Gc.get ()).Gc.minor_heap_size in
  let inside =
    Ir_exec.with_pool_heap @@ fun () ->
    ignore
      (Ir_exec.parallel_map ~jobs:4 (fun x -> x * 2) (Array.init 32 Fun.id));
    (Gc.get ()).Gc.minor_heap_size
  in
  Alcotest.(check int) "raised (or already larger) inside the scope"
    (max before Ir_exec.pool_minor_heap_words)
    inside;
  Alcotest.(check int) "restored after the scope drains" before
    ((Gc.get ()).Gc.minor_heap_size);
  (* Restores on the exception path too. *)
  (try Ir_exec.with_pool_heap (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "restored after a raise" before
    ((Gc.get ()).Gc.minor_heap_size)

(* The unit split across workers is scheduling-dependent, but the sum is
   an invariant: every element is processed exactly once. *)
let prop_units_sum_to_n =
  Helpers.qtest ~count:50 "pool units sum to n"
    QCheck2.Gen.(pair (int_range 0 40) (int_range 1 6))
    (fun (n, jobs) ->
      ignore
        (Ir_exec.parallel_map ~jobs
           (fun x -> x + 1)
           (Array.init n (fun i -> i)));
      match Ir_exec.last_pool_stats () with
      | None -> false
      | Some st -> Array.fold_left ( + ) 0 st.Ir_exec.units = n)

let () =
  Alcotest.run "exec"
    [
      ( "parallel_map",
        [
          Alcotest.test_case "matches sequential" `Quick
            test_matches_sequential;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "jobs exceed items" `Quick
            test_jobs_exceed_items;
          Alcotest.test_case "jobs=1 stays on caller" `Quick
            test_singleton_sequential;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
        ] );
      ( "parallel_map_chunked",
        [ Alcotest.test_case "chunk sizes" `Quick test_chunked_equivalence ] );
      ( "parallel_list_map",
        [ Alcotest.test_case "order" `Quick test_list_map_order ] );
      ( "configuration",
        [
          Alcotest.test_case "jobs resolution" `Quick test_jobs_resolution;
          Alcotest.test_case "scoped override" `Quick test_with_default_jobs;
          Alcotest.test_case "recommended positive" `Quick
            test_recommended_positive;
          Alcotest.test_case "hardware clamp" `Quick test_hardware_clamp;
        ] );
      ( "pool_stats",
        [
          Alcotest.test_case "accounting" `Quick test_pool_stats_accounting;
          Alcotest.test_case "steal accounting" `Quick test_steals_accounted;
          prop_units_sum_to_n;
        ] );
      ( "work stealing",
        [
          Alcotest.test_case "one giant group" `Quick test_group_map_one_giant;
          prop_group_map_differential;
        ] );
      ( "gc scoping",
        [
          Alcotest.test_case "clamp counter" `Quick test_clamp_counter;
          Alcotest.test_case "pool heap restored" `Quick
            test_pool_heap_restore;
        ] );
    ]
