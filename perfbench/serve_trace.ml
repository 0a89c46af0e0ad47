(* In-process replay of the serve_mix stream: the same request lines, one
   at a time, through the serve tier's public layers (Protocol decoding,
   fingerprinting, Server.submit_query with its cache, queue, warm grid
   and cold compute, and response encoding), each call timed from here
   when [timed].  Replaying one request at a time makes the work
   deterministic, so a timed and an untimed replay must count
   identically, and their walls differ by the cost of the timing. *)

open Common
module Pr = Ir_serve.Protocol

type t = {
  wall_s : float;
  covered_s : float;  (** summed time of the timed calls *)
  decode_us : float list;
  encode_us : float list;
  fingerprint_us : float list;
  hit_us : float list;  (** submit_query answered from memory or disk *)
  memory_hit_us : float list;  (** whole in-process handling of memory hits *)
  queue_wait_ms : float list;  (** per miss: submit_query minus compute *)
  snap : Ir_obs.snapshot;
  gc : gc_delta;
}

let replay tally ~timed ~dir (corpus : Serve_load.corpus) refs =
  let time f = if timed then time f else (f (), 0.0) in
  rm_rf dir;
  mkdir_p dir;
  let ok what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e) in
  Gc.compact ();
  Ir_obs.reset ();
  let g0 = Gc.quick_stat () in
  let cache =
    ok "cache"
      (Ir_serve.Cache.create ~capacity:Serve_load.cache_entries
         ~dir:(Filename.concat dir "cache") ())
  in
  let snapshot =
    ok "snapshot" (Ir_serve.Snapshot.create ~dir:(Filename.concat dir "snap"))
  in
  let srv =
    Ir_serve.Server.create ~workers:Serve_load.workers ~snapshot ~cache ()
  in
  let us s = s *. 1e6 in
  let decode = ref [] and encode = ref [] and fingerprint = ref [] in
  let hits = ref [] and memory_hits = ref [] and waits = ref [] in
  let covered = ref 0.0 in
  (* The serve/compute span grows only while a miss computes, and misses
     run one at a time here, so its growth since the previous miss is
     this miss's compute time. *)
  let computed = ref 0.0 in
  let t0 = now () in
  Array.iteri
    (fun i line ->
      let req, t_dec = time (fun () -> Pr.decode_request line) in
      let answered =
        match req with
        | Ok { Pr.id; op = Pr.Query q } -> (
            let fp, t_fp =
              time (fun () ->
                  match Pr.fingerprint_of_query q with
                  | Ok fp ->
                      ignore (Ir_serve.Fingerprint.digest fp);
                      Some fp
                  | Error _ -> None)
            in
            match fp with
            | None -> false
            | Some fp -> (
                let res, t_sub =
                  time (fun () -> Ir_serve.Server.submit_query srv fp)
                in
                match res with
                | Error _ -> false
                | Ok (payload, source) ->
                    let _, t_enc =
                      time (fun () ->
                          Pr.encode_response
                            { Pr.id; body = Pr.Result { source; payload } })
                    in
                    let t_all = t_dec +. t_fp +. t_sub +. t_enc in
                    covered := !covered +. t_all;
                    decode := us t_dec :: !decode;
                    fingerprint := us t_fp :: !fingerprint;
                    encode := us t_enc :: !encode;
                    (match source with
                    | "memory" ->
                        hits := us t_sub :: !hits;
                        memory_hits := us t_all :: !memory_hits
                    | "disk" -> hits := us t_sub :: !hits
                    | _ when not timed -> ()
                    | _ ->
                        let c = span_s (Ir_obs.snapshot ()) "serve/compute" in
                        waits := ((t_sub -. (c -. !computed)) *. 1e3) :: !waits;
                        computed := c);
                    String.equal payload
                      refs.(corpus.Serve_load.stream.(i))))
        | Ok _ | Error _ -> false
      in
      attempt tally answered
        (Printf.sprintf "serve_mix in-process request %d" i))
    corpus.Serve_load.lines;
  let wall_s = now () -. t0 in
  Ir_serve.Server.shutdown srv;
  Ir_serve.Server.join srv;
  let snap = ledger () and gc = gc_since g0 in
  rm_rf dir;
  {
    wall_s;
    covered_s = !covered;
    decode_us = !decode;
    encode_us = !encode;
    fingerprint_us = !fingerprint;
    hit_us = !hits;
    memory_hit_us = !memory_hits;
    queue_wait_ms = !waits;
    snap;
    gc;
  }
