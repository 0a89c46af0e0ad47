(* serve_mix: a closed loop of two clients, over a Unix socket, against a
   child [ia_rank serve] with two workers, a memory cache smaller than the
   corpus, and a result cache and table snapshots on disk.  The server
   receives only request lines generated from the seed.

   The stream is replayed in rounds, each against a fresh server with
   fresh cache and snapshot directories, so every round does the same
   work: the corpus's misses (plane builds, phase-B searches on warm
   planes, cold computes) and hits from both cache tiers.  Spawning the
   server is the set-up. *)

open Common
module Pr = Ir_serve.Protocol

type corpus = {
  queries : Pr.query array;  (** distinct queries *)
  stream : int array;  (** request [i] asks [queries.(stream.(i))] *)
  lines : string array;  (** the stream on the wire; id = position *)
}

(* Corpus dimensions: four families (node x gates); per family three
   (K, Miller, clock) planes with four repeater fractions each take the
   warm path, and one greedy and one power-budgeted query the cold
   path.  The plane builds and cold computes are the slowest requests and
   set p99, so the planes and the cold-path queries are drawn from a
   fixed seed and are the same in every run; the run's seed draws the
   warm fractions, the Zipf order and the stream. *)
let nodes = [| "130nm"; "90nm" |]
let gate_counts = [| 200_000; 1_000_000 |]
let planes_per_family = 3
let fractions_per_plane = 4
let ks = [| 3.9; 3.5; 3.1; 2.7 |]
let millers = [| 2.0; 1.7; 1.4 |]
let clocks = [| 4e8; 5e8; 6e8 |]
let fractions = Array.init 13 (fun i -> 0.1 +. (0.05 *. float_of_int i))
let power_budgets = [| 0.5; 1.0; 2.0 |]

(* 1000 requests hold the corpus's 56 misses.  Of those, the 10 or so
   phase-A builds and cold computes at 1M gates take 90-280 ms, and the
   rest fall off steeply to a few ms; the 10 samples per round beyond p99
   lie among the slow ones, away from the fall. *)
let stream_length = 1000
let cold_share = 0.04
let zipf_exponent = 1.1
let cache_entries = 16
let workers = 2
let clients = 2
let round_reference_samples = 2

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let take n a = Array.sub a 0 (min n (Array.length a))
let pick rng a = a.(Random.State.int rng (Array.length a))

let corpus_seed = 0x5eed

let corpus seed =
  let rng = Random.State.make [| seed |] in
  let fixed = Random.State.make [| corpus_seed |] in
  let planes =
    Array.of_list
      (List.concat_map
         (fun k ->
           List.concat_map
             (fun miller ->
               List.map (fun clock -> (k, miller, clock)) (Array.to_list clocks))
             (Array.to_list millers))
         (Array.to_list ks))
  in
  let warm = ref [] and cold = ref [] in
  Array.iter
    (fun node ->
      Array.iter
        (fun gates ->
          let family = take planes_per_family (shuffle fixed planes) in
          Array.iter
            (fun (k, miller, clock) ->
              Array.iter
                (fun f ->
                  warm :=
                    Pr.query ~k ~miller ~clock ~repeater_fraction:f ~node ~gates
                      ()
                    :: !warm)
                (take fractions_per_plane (shuffle rng fractions)))
            family;
          let k, miller, clock = pick fixed family in
          let f = pick fixed fractions in
          cold :=
            Pr.query ~greedy:true ~k ~miller ~clock ~repeater_fraction:f ~node
              ~gates ()
            :: !cold;
          let k, miller, clock = pick fixed family in
          let f = pick fixed fractions in
          let power_budget = pick fixed power_budgets in
          cold :=
            Pr.query ~power_budget ~k ~miller ~clock ~repeater_fraction:f ~node
              ~gates ()
            :: !cold)
        gate_counts)
    nodes;
  (* Zipf ranks over the warm queries, in a seeded order. *)
  let warm = shuffle rng (Array.of_list (List.rev !warm)) in
  let cold = Array.of_list (List.rev !cold) in
  let queries = Array.append warm cold in
  let nw = Array.length warm in
  let cumulative =
    let w =
      Array.init nw (fun r -> Float.pow (float_of_int (r + 1)) (-.zipf_exponent))
    in
    let total = Array.fold_left ( +. ) 0.0 w in
    let acc = ref 0.0 in
    Array.map
      (fun x ->
        acc := !acc +. x;
        !acc /. total)
      w
  in
  let zipf u =
    let rec bisect lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cumulative.(mid) < u then bisect (mid + 1) hi else bisect lo mid
    in
    bisect 0 (nw - 1)
  in
  let stream =
    Array.init stream_length (fun _ ->
        if Random.State.float rng 1.0 < cold_share then
          nw + Random.State.int rng (Array.length cold)
        else zipf (Random.State.float rng 1.0))
  in
  (* Every distinct query is asked at least once, so every round computes
     the whole corpus. *)
  let counts = Array.make (Array.length queries) 0 in
  Array.iter (fun q -> counts.(q) <- counts.(q) + 1) stream;
  Array.iteri
    (fun q c ->
      if c = 0 then begin
        let rec place () =
          let i = Random.State.int rng stream_length in
          let old = stream.(i) in
          if counts.(old) > 1 then begin
            counts.(old) <- counts.(old) - 1;
            counts.(q) <- 1;
            stream.(i) <- q
          end
          else place ()
        in
        place ()
      end)
    counts;
  let lines =
    Array.mapi
      (fun i q ->
        Pr.encode_request
          { Pr.id = string_of_int i; op = Pr.Query queries.(q) })
      stream
  in
  { queries; stream; lines }

(* The reference answer: a cold compute with no serving-layer reuse. *)
let reference q =
  match Pr.fingerprint_of_query q with
  | Ok fp -> Pr.result_payload (Ir_serve.Fingerprint.compute_cold fp)
  | Error e -> failwith ("serve_mix: generated an invalid query: " ^ e)

(* ---- one round against a fresh server --------------------------------- *)

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

(* Polls until the server accepts a connection. *)
let await_ready pid socket =
  let deadline = now () +. 60.0 in
  let rec go () =
    match connect socket with
    | Some fd -> Unix.close fd
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "serve_mix: ia_rank serve exited before listening");
        if now () > deadline then
          failwith "serve_mix: ia_rank serve did not start listening";
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

(* SIGTERM drains the server; SIGKILL if it has not exited in 10 s. *)
let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ -> (
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ()

let exchange ic oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

(* One closed-loop client: takes the next unsent position of the stream,
   sends its line and waits for the answer before taking another. *)
let client ~socket ~lines ~next ~latency_ms ~responses () =
  match connect socket with
  | None -> ()
  | Some fd ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < Array.length lines then begin
          let t0 = now () in
          let reply = exchange ic oc lines.(i) in
          latency_ms.(i) <- (now () -. t0) *. 1e3;
          responses.(i) <- reply;
          go ()
        end
      in
      (try go () with End_of_file | Sys_error _ -> ());
      close_out_noerr oc

let server_stats socket =
  match connect socket with
  | None -> []
  | Some fd -> (
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let reply =
        try
          Some
            (exchange ic oc
               (Pr.encode_request { Pr.id = "stats"; op = Pr.Stats }))
        with End_of_file | Sys_error _ -> None
      in
      close_out_noerr oc;
      match Option.map Pr.decode_response reply with
      | Some (Ok { Pr.body = Pr.Stats_reply kvs; _ }) -> kvs
      | _ -> [])

type round = {
  setup_s : float;  (** spawn until the socket accepts *)
  wall_s : float;  (** first request sent to last answer received *)
  latency_ms : float array;  (** per stream position *)
  responses : string array;  (** per stream position; "" if none came *)
  server_mb : float;  (** the server's peak resident set *)
  stats : (string * int) list;  (** the server's serve* counters *)
}

let run_round ~exe ~dir corpus =
  rm_rf dir;
  mkdir_p dir;
  let socket = Filename.concat dir "s.sock" in
  let argv =
    [|
      exe;
      "serve";
      "--socket";
      socket;
      "--workers";
      string_of_int workers;
      "--cache-entries";
      string_of_int cache_entries;
      "--cache-dir";
      Filename.concat dir "cache";
      "--snapshot-dir";
      Filename.concat dir "snap";
    |]
  in
  let t0 = now () in
  let pid = Unix.create_process exe argv Unix.stdin Unix.stderr Unix.stderr in
  Fun.protect
    ~finally:(fun () ->
      stop_server pid;
      rm_rf dir)
  @@ fun () ->
  await_ready pid socket;
  let setup_s = now () -. t0 in
  let n = Array.length corpus.lines in
  let latency_ms = Array.make n 0.0 and responses = Array.make n "" in
  let next = Atomic.make 0 in
  let t1 = now () in
  List.iter Thread.join
    (List.init clients (fun _ ->
         Thread.create
           (client ~socket ~lines:corpus.lines ~next ~latency_ms ~responses)
           ()));
  let wall_s = now () -. t1 in
  let stats = server_stats socket in
  {
    setup_s;
    wall_s;
    latency_ms;
    responses;
    server_mb = peak_rss_mb ~pid ();
    stats;
  }

let response_source line =
  match Pr.decode_response line with
  | Ok { Pr.body = Pr.Result { source; _ }; _ } -> Some source
  | Ok _ | Error _ -> None

(* ---- the workload ----------------------------------------------------- *)

type measured = { corpus : corpus; rounds : round list; refs : string array }

let check_round t corpus refs r =
  Array.iteri
    (fun i line ->
      let ok =
        match Pr.decode_response line with
        | Ok { Pr.id; body = Pr.Result { payload; _ } } ->
            id = string_of_int i
            && String.equal payload refs.(corpus.stream.(i))
        | Ok _ | Error _ -> false
      in
      attempt t ok (Printf.sprintf "serve_mix request %d answered %S" i line))
    r.responses

let measure t (args : args) =
  let corpus = corpus args.seed in
  let start = now () in
  (* The reference kernel is sampled before the first round and after
     each one, while no server runs. *)
  sample_reference round_reference_samples;
  let rec go k acc =
    if acc <> [] && now () -. start >= args.seconds then List.rev acc
    else
      let dir = Filename.concat args.work_dir (Printf.sprintf "round%d" k) in
      let r = run_round ~exe:args.ia_rank ~dir corpus in
      sample_reference round_reference_samples;
      go (k + 1) (r :: acc)
  in
  let rounds = go 0 [] in
  (* Outside the timed rounds: every distinct payload against a cold
     compute. *)
  let refs = Array.map reference corpus.queries in
  List.iteri
    (fun i r ->
      let lat = Array.to_list r.latency_ms in
      log
        "serve_mix round %d: setup %.4f s, wall %.3f s, %d samples, p50 %.3f \
         ms, p99 %.3f ms, server %.1f MB"
        (i + 1) r.setup_s r.wall_s (Array.length r.latency_ms)
        (percentile 0.5 lat) (percentile 0.99 lat) r.server_mb;
      check_round t corpus refs r)
    rounds;
  { corpus; rounds; refs }

(* Set-up, wall and memory are medians over rounds; the latency
   percentiles are over every request of every round.  Times are at the
   reference speed of the run. *)
let metrics u =
  let per f = median (List.map f u.rounds) in
  let latencies = List.concat_map (fun r -> Array.to_list r.latency_ms) u.rounds in
  let wall = at_reference (per (fun r -> r.wall_s)) in
  [
    m "setup_s" "s" (at_reference (per (fun r -> r.setup_s)));
    m "wall_s" "s" wall;
    m "answers_per_s" "1/s" (float_of_int stream_length /. wall);
    m "latency_p50_ms" "ms" (at_reference (percentile 0.5 latencies));
    m "latency_p99_ms" "ms" (at_reference (percentile 0.99 latencies));
    m "peak_mem_mb" "MB" (per (fun r -> r.server_mb));
  ]
