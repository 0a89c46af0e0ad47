(* Plumbing shared by the benchmark executables: the command line, sample
   statistics, process probes, the per-workload Ir_obs ledger, the
   failure tally and the result line that run.py relays. *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;  (** per-layer metrics instead of end-to-end ones *)
  ia_rank : string;  (** the ia_rank executable serve_mix spawns *)
  work_dir : string;  (** checkout-local scratch: sockets, caches *)
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 in
  let ia_rank = ref "" and work_dir = ref ".bench_tmp" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics when 1");
      ("--ia-rank", Arg.Set_string ia_rank, "PATH ia_rank executable");
      ("--work-dir", Arg.Set_string work_dir, "DIR scratch directory");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "--workload NAME --seed N --seconds S --trace 0|1 --ia-rank PATH \
     --work-dir DIR";
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace <> 0;
    ia_rank = !ia_rank;
    work_dir = !work_dir;
  }

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ---- sample statistics ------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile: the smallest sample with at least [q] of the
   sample at or below it. *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let r = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (r - 1)))

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* ---- process probes --------------------------------------------------- *)

(* Peak resident set (VmHWM) of [pid], or of this process, in MB; 0 when
   /proc has no entry. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> (
                  match float_of_string_opt kb with
                  | Some k -> k /. 1024.0
                  | None -> acc)
              | [] -> acc)
          | _ -> acc)
        0.0
        (String.split_on_char '\n' text)

type gc_delta = {
  minor_collections : int;
  major_collections : int;
  allocated_mb : float;
}

let gc_since (s0 : Gc.stat) =
  let s1 = Gc.quick_stat () in
  let words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
  {
    minor_collections = s1.minor_collections - s0.minor_collections;
    major_collections = s1.major_collections - s0.major_collections;
    allocated_mb = (words s1 -. words s0) *. 8.0 /. 1e6;
  }

let top_heap_mb () =
  float_of_int (Gc.quick_stat ()).top_heap_words *. 8.0 /. 1e6

(* ---- scratch directories ---------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

(* ---- the work ledger -------------------------------------------------- *)

(* Everything Ir_obs counted since the last reset, minus the exec/sched/
   namespace (steal tallies describe the schedule, not the work). *)
let ledger () = Ir_obs.filter_out ~prefix:"exec/sched/" (Ir_obs.snapshot ())

let count snap name = Option.value ~default:0 (Ir_obs.find_counter snap name)

let span_s snap name =
  match Ir_obs.find_span snap name with
  | Some s -> s.Ir_obs.seconds
  | None -> 0.0

(* Counter names under [prefixes] whose values differ between [a] and
   [b] (either side missing counts as 0). *)
let counter_diff ~prefixes a b =
  let keep name =
    List.exists (fun p -> String.starts_with ~prefix:p name) prefixes
  in
  let names =
    List.sort_uniq compare
      (List.filter keep
         (List.map fst a.Ir_obs.counters @ List.map fst b.Ir_obs.counters))
  in
  List.filter (fun n -> count a n <> count b n) names

let ledger_json workload (snap : Ir_obs.snapshot) =
  let open Ir_serve.Json in
  let ints kvs = Obj (List.map (fun (n, v) -> (n, Int v)) kvs) in
  to_string
    (Obj
       [
         ("workload", Str workload);
         ("counters", ints snap.Ir_obs.counters);
         ("gauges", ints snap.Ir_obs.gauges);
       ])

(* ---- failures and the result line ------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable broken : string list;  (** failed identity checks, not per-op *)
}

let tally () = { attempted = 0; failed = 0; broken = [] }

let attempt t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.failed <= 20 then log "perfbench: wrong or failed answer: %s" what
  end

let break t what =
  t.broken <- what :: t.broken;
  log "perfbench: check failed: %s" what

let correct t = t.failed = 0 && t.broken = []

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let emit t metrics =
  let open Ir_serve.Json in
  let num v = Float (if Float.is_finite v then v else 0.0) in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool (correct t));
            ("attempted", Int (max 1 t.attempted));
            ("failed", Int t.failed);
            ( "metrics",
              Obj
                (List.map
                   (fun x ->
                     (x.name, Obj [ ("value", num x.value); ("unit", Str x.unit_) ]))
                   metrics) );
          ]));
  exit (if correct t then 0 else 1)

(* ---- machine-speed calibration ---------------------------------------- *)

(* The speed of a shared virtual machine drifts by tens of percent over
   minutes.  So a run also times a fixed reference kernel, between its
   passes, and reports its times at the reference speed:
   [t *. reference_nominal_s /. r], with [r] the median of the run's
   reference samples, as measured on a machine on which the kernel takes
   [reference_nominal_s].  The kernel is random reads over a 32 MB table
   and a data-dependent branch: nothing from the program under test, so
   no change to the program moves it.  It runs in a child process (this
   executable with [--reference N]), so that its table adds nothing to
   the run's peak memory and its work nothing to the run's heap. *)
let reference_nominal_s = 0.08

let reference_kernel table =
  let mask = Array.length table - 1 in
  let x = ref 0x2545F491 and acc = ref 0 and f = ref 1.0 in
  for _ = 1 to 5_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let v = Array.unsafe_get table (!x land mask) in
    acc := !acc + v;
    if v land 1 = 0 then f := !f +. (float_of_int v *. 1e-9)
    else f := !f *. 0.999999
  done;
  ignore (Sys.opaque_identity (!acc, !f))

(* The [--reference N] mode: prints N timings of the kernel, one a line. *)
let print_reference_samples n =
  let table = Array.init (1 lsl 22) (fun i -> (i * 0x9E3779B1) land 0x3FFFFFFF) in
  for _ = 1 to n do
    Printf.printf "%.9f\n%!" (snd (time (fun () -> reference_kernel table)))
  done

let reference_samples = ref []

(* Adds [n] reference samples, timed in a child process, to the run's. *)
let sample_reference n =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--reference"; string_of_int n |]
  in
  let got = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "perfbench: the reference kernel failed");
  List.iter
    (fun l ->
      match float_of_string_opt l with
      | Some v -> reference_samples := v :: !reference_samples
      | None -> ())
    (String.split_on_char '\n' got)

let reference_s () = median !reference_samples

(* [t], as measured in this run, at the reference speed. *)
let at_reference t = t *. reference_nominal_s /. reference_s ()

(* Pass loop of the engine workloads: at least one pass, more while the
   measured window lasts.  Each pass starts from a compacted heap and a
   zeroed registry, so passes are comparable and each ledger holds
   exactly one pass.  The reference kernel is sampled before the first
   pass and after each one. *)
type 'a pass = {
  result : 'a;
  wall : float;
  cpu : float;
  snap : Ir_obs.snapshot;
  gc : gc_delta;
}

let pass_reference_samples = 5

let run_passes ~seconds f =
  let start = now () in
  sample_reference pass_reference_samples;
  let rec go acc =
    if acc <> [] && now () -. start >= seconds then List.rev acc
    else begin
      Gc.compact ();
      Ir_obs.reset ();
      let g0 = Gc.quick_stat () in
      let c0 = Sys.time () in
      let result, wall = time f in
      let cpu = Sys.time () -. c0 in
      let gc = gc_since g0 and snap = ledger () in
      sample_reference pass_reference_samples;
      go ({ result; wall; cpu; snap; gc } :: acc)
    end
  in
  go []

(* Median of [reps] timings of [f], each from a collected heap. *)
let median_time ~reps f =
  median
    (List.init reps (fun _ ->
         Gc.full_major ();
         snd (time f)))
