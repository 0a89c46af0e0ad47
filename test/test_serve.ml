(* The serving layer: fingerprint canonicalization, JSON hardening,
   protocol round-trips, the two-tier cache (LRU model check, disk
   corruption handling), and end-to-end server behaviour over a real
   Unix socket — coalescing, restart persistence, shedding, timeouts,
   and the differential guarantee that every served payload is
   byte-identical to a cold computation. *)

open Helpers
module F = Ir_serve.Fingerprint
module J = Ir_serve.Json
module Pr = Ir_serve.Protocol
module C = Ir_serve.Cache
module S = Ir_serve.Server
module Cl = Ir_serve.Client

let ok_exn what = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%s: %s" what e

let counter name = counter_in (Ir_obs.snapshot ()) name

(* Bounded busy-wait for cross-thread conditions in the e2e tests. *)
let wait_for ?(timeout = 10.0) what pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

let small_query ?repeater_fraction ?algo ?wld () =
  ok_exn "small query"
    (F.v ?repeater_fraction ?algo ?wld ~bunch_size:500 ~node:"130nm"
       ~gates:20_000 ())

(* ---- fingerprint ------------------------------------------------------ *)

let test_fp_deterministic () =
  let a = small_query () and b = small_query () in
  Alcotest.(check string) "same digest" (F.digest a) (F.digest b);
  Alcotest.(check bool) "version-tagged canonical form" true
    (String.length (F.canonical a) > 22
    && String.sub (F.canonical a) 0 22 = "ia-rank/fingerprint/2\n")

let test_fp_node_spellings () =
  let d spelling =
    F.digest (ok_exn "query" (F.v ~node:spelling ~gates:1000 ()))
  in
  Alcotest.(check string) "130nm = 130" (d "130nm") (d "130");
  Alcotest.(check string) "130nm = n130" (d "130nm") (d "n130");
  Alcotest.(check bool) "130nm <> 90nm" true (d "130nm" <> d "90nm")

let test_fp_defaults_explicit () =
  let omitted = ok_exn "omitted" (F.v ~node:"130nm" ~gates:1000 ()) in
  let explicit =
    ok_exn "explicit"
      (F.v ~rent_p:0.6 ~fan_out:3.0 ~clock:0.5e9 ~repeater_fraction:0.4
         ~k:3.9 ~miller:2.0 ~bunch_size:10_000 ~algo:F.Dp ~node:"130nm"
         ~gates:1000 ())
  in
  Alcotest.(check string) "defaults fingerprint identically"
    (F.digest omitted) (F.digest explicit)

let test_fp_param_sensitivity () =
  let base = ok_exn "base" (F.v ~node:"130nm" ~gates:1000 ()) in
  let variants =
    [
      ("gates", F.v ~node:"130nm" ~gates:1001 ());
      ("clock", F.v ~clock:0.6e9 ~node:"130nm" ~gates:1000 ());
      ("k", F.v ~k:2.7 ~node:"130nm" ~gates:1000 ());
      ("fraction", F.v ~repeater_fraction:0.5 ~node:"130nm" ~gates:1000 ());
      ("algo", F.v ~algo:F.Greedy ~node:"130nm" ~gates:1000 ());
    ]
  in
  List.iter
    (fun (what, q) ->
      Alcotest.(check bool)
        (what ^ " changes the digest")
        true
        (F.digest (ok_exn what q) <> F.digest base))
    variants

let test_fp_inline_wld_canonical () =
  (* The same distribution listed in a different bin order fingerprints
     identically: the digest covers the canonical (merged, ascending)
     rendering, not the upload bytes. *)
  let wld text = ok_exn "wld" (Ir_wld.Io.of_string text) in
  let a = wld "1,2\n3.5,4\n" and b = wld "3.5,4\n1,2\n" in
  let q w = ok_exn "query" (F.v ~wld:w ~node:"130nm" ~gates:1000 ()) in
  Alcotest.(check string) "order-independent" (F.digest (q a))
    (F.digest (q b));
  Alcotest.(check bool) "inline wld differs from davis" true
    (F.digest (q a)
    <> F.digest (ok_exn "davis" (F.v ~node:"130nm" ~gates:1000 ())))

let test_fp_table_key_masks () =
  let q f algo =
    ok_exn "query" (F.v ~repeater_fraction:f ~algo ~node:"130nm" ~gates:1000 ())
  in
  Alcotest.(check string) "fraction masked"
    (F.table_key (q 0.2 F.Dp))
    (F.table_key (q 0.8 F.Dp));
  Alcotest.(check string) "algo masked"
    (F.table_key (q 0.4 F.Dp))
    (F.table_key (q 0.4 F.Greedy));
  Alcotest.(check bool) "digest itself not masked" true
    (F.digest (q 0.2 F.Dp) <> F.digest (q 0.8 F.Dp));
  let other = ok_exn "90nm" (F.v ~node:"90nm" ~gates:1000 ()) in
  Alcotest.(check bool) "node not masked" true
    (F.table_key (q 0.4 F.Dp) <> F.table_key other)

let test_fp_family_key_masks () =
  let q ?k ?miller ?clock ?repeater_fraction ?algo ?gates ?node () =
    ok_exn "query"
      (F.v ?k ?miller ?clock ?repeater_fraction ?algo
         ~node:(Option.value ~default:"130nm" node)
         ~gates:(Option.value ~default:1000 gates)
         ())
  in
  let base = F.family_key (q ()) in
  (* Everything a resident grid perturbs over is masked out... *)
  Alcotest.(check string) "k masked" base (F.family_key (q ~k:2.7 ()));
  Alcotest.(check string) "miller masked" base
    (F.family_key (q ~miller:1.5 ()));
  Alcotest.(check string) "clock masked" base
    (F.family_key (q ~clock:1.0e9 ()));
  Alcotest.(check string) "fraction masked" base
    (F.family_key (q ~repeater_fraction:0.8 ()));
  Alcotest.(check string) "algo masked" base
    (F.family_key (q ~algo:F.Greedy ()));
  (* ...while the family-pinning fields are not. *)
  Alcotest.(check bool) "gates not masked" true
    (base <> F.family_key (q ~gates:1001 ()));
  Alcotest.(check bool) "node not masked" true
    (base <> F.family_key (q ~node:"90nm" ()));
  (* Strictly coarser than the table key: a k variant shares the family
     but not the plane. *)
  Alcotest.(check bool) "coarser than table_key" true
    (F.table_key (q ()) <> F.table_key (q ~k:2.7 ()))

let test_fp_validation () =
  (match F.v ~node:"bogus" ~gates:1000 () with
  | Error e ->
      Alcotest.(check bool) "names the node" true
        (Astring_contains.contains e "bogus")
  | Ok _ -> Alcotest.fail "bogus node accepted");
  (match F.v ~bunch_size:0 ~node:"130nm" ~gates:1000 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bunch_size 0 accepted");
  match F.v ~repeater_fraction:1.5 ~node:"130nm" ~gates:1000 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "repeater fraction 1.5 accepted"

(* A wire line names its instance size, and nothing bounded it: a
   query at [gates = max_int] reached [Davis.generate], which would loop
   over about 4.3e9 lengths, and [fan_out = 1e30] made counts from an
   out-of-range [int_of_float].  Such lines are refused by name before
   anything is computed; the 8-layer 90nm/10M cell's size stays
   accepted. *)
let test_oversized_rejected () =
  let cache = ok_exn "cache" (C.create ~capacity:8 ()) in
  let srv = S.create ~workers:1 ~cache () in
  let before = counter "serve/computes" in
  List.iter
    (fun (label, query) ->
      let line =
        "{\"v\":1,\"id\":\"big\",\"op\":\"query\",\"query\":" ^ query ^ "}"
      in
      match Pr.decode_response (S.handle_line srv line) with
      | Ok { Pr.body = Pr.Error (Pr.Bad_request m); _ } ->
          Alcotest.(check bool)
            (label ^ ": names the limit") true
            (Astring_contains.contains m "instance too large")
      | Ok _ -> Alcotest.failf "%s: not a bad_request" label
      | Error e -> Alcotest.failf "%s: malformed response: %s" label e)
    [
      ("gates = max_int", "{\"node\":\"90nm\",\"gates\":4611686018427387903}");
      ("fan_out = 1e30", "{\"node\":\"90nm\",\"gates\":1000,\"fan_out\":1e30}");
      ( "inline WLD of 1e12 wires at bunch size 1",
        "{\"node\":\"130nm\",\"gates\":1000,\"bunch_size\":1,\"wld_csv\":\"length,count\\n5,1000000000000\"}"
      );
    ];
  Alcotest.(check int) "nothing computed" before (counter "serve/computes");
  S.shutdown srv;
  S.join srv;
  let structure =
    { Ir_ia.Arch.local_pairs = 1; semi_global_pairs = 3; global_pairs = 1 }
  in
  ignore
    (ok_exn "8-layer 90nm/10M at bunch size 10,000"
       (F.v ~structure ~node:"90nm" ~gates:10_000_000 ()));
  Alcotest.(check bool) "the limit" true (F.max_bunches = 65_536)

(* The version-2 compatibility rule: the power fields enter the
   canonical form only when they can change the answer, so every query
   that doesn't use them keeps its (v2) digest no matter how the
   defaults are spelled. *)
let test_fp_power_fields () =
  let q ?power_budget ?activity () =
    ok_exn "query" (F.v ?power_budget ?activity ~node:"130nm" ~gates:1000 ())
  in
  let base = F.digest (q ()) in
  Alcotest.(check string) "explicit infinite budget fingerprints as absent"
    base
    (F.digest (q ~power_budget:infinity ()));
  Alcotest.(check string) "activity inert without a finite budget" base
    (F.digest (q ~power_budget:infinity ~activity:0.5 ()));
  Alcotest.(check bool) "finite budget changes the digest" true
    (F.digest (q ~power_budget:0.5 ()) <> base);
  Alcotest.(check bool) "activity matters under a finite budget" true
    (F.digest (q ~power_budget:0.5 ~activity:0.3 ())
    <> F.digest (q ~power_budget:0.5 ()));
  (* A finite budget is an area cap answered from the family's shared
     tables, so it aliases onto the unpowered query's table and family
     keys — and so does the activity it is priced at. *)
  Alcotest.(check string) "finite budget shares the table key"
    (F.table_key (q ()))
    (F.table_key (q ~power_budget:0.5 ~activity:0.3 ()));
  Alcotest.(check string) "finite budget shares the family key"
    (F.family_key (q ()))
    (F.family_key (q ~power_budget:0.5 ~activity:0.3 ()));
  let rejected what r =
    match r with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  rejected "budget 0" (F.v ~power_budget:0.0 ~node:"130nm" ~gates:1000 ());
  rejected "negative budget"
    (F.v ~power_budget:(-1.0) ~node:"130nm" ~gates:1000 ());
  rejected "activity 0"
    (F.v ~power_budget:0.5 ~activity:0.0 ~node:"130nm" ~gates:1000 ());
  rejected "activity > 1"
    (F.v ~power_budget:0.5 ~activity:1.5 ~node:"130nm" ~gates:1000 ());
  rejected "greedy under a finite budget"
    (F.v ~power_budget:0.5 ~algo:F.Greedy ~node:"130nm" ~gates:1000 ())

(* ---- JSON ------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("s", J.Str "a\"b\\c\nd");
        ("i", J.Int (-42));
        ("f", J.Float 0.1);
        ("t", J.Bool true);
        ("n", J.Null);
        ("a", J.Arr [ J.Int 1; J.Str "x"; J.Obj [] ]);
      ]
  in
  let s = J.to_string v in
  let v2 = ok_exn "parse" (J.of_string s) in
  Alcotest.(check string) "print-parse-print fixpoint" s (J.to_string v2)

let test_json_hardening () =
  let rejected what s =
    match J.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted: %s" what s
  in
  rejected "trailing garbage" "{} x";
  rejected "raw control char" "\"a\x01b\"";
  rejected "bare word" "nul";
  rejected "unterminated string" "\"abc";
  rejected "lone surrogate" "\"\\ud800\"";
  rejected "infinite number" "1e999999";
  rejected "deep nesting"
    (String.concat "" (List.init 100 (fun _ -> "[")) );
  (* an integral float is still an int to readers *)
  Alcotest.(check (option int)) "3.0 readable as int" (Some 3)
    (J.to_int (ok_exn "3.0" (J.of_string "3.0")));
  match J.to_string (J.Float Float.nan) with
  | exception Invalid_argument _ -> ()
  | s -> Alcotest.failf "NaN printed as %s" s

(* ---- protocol --------------------------------------------------------- *)

let gen_query =
  let open QCheck2.Gen in
  let id_string = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  let opt_f lo hi = option (float_range lo hi) in
  let* node = oneofl [ "130nm"; "90nm"; "weird node \"x\"" ] in
  let* gates = int_range 1 10_000_000 in
  let* rent_p = opt_f 0.1 0.9 in
  let* fan_out = opt_f 1.0 5.0 in
  let* clock = opt_f 1e8 5e9 in
  let* repeater_fraction = opt_f 0.0 1.0 in
  let* k = opt_f 1.0 5.0 in
  let* miller = opt_f 1.0 3.0 in
  let* bunch_size = option (int_range 1 100_000) in
  let* structure =
    option (triple (int_range 0 4) (int_range 0 4) (int_range 0 4))
  in
  let* greedy = bool in
  let* power_budget = opt_f 0.01 2.0 in
  let* activity = opt_f 0.01 1.0 in
  let* wld_csv =
    option (map (fun s -> s ^ "\n1,2") id_string)
  in
  let* id = id_string in
  return
    ( id,
      Pr.query ?rent_p ?fan_out ?clock ?repeater_fraction ?k ?miller
        ?bunch_size ?structure ~greedy ?power_budget ?activity
        ?wld_csv ~node ~gates () )

let prop_request_roundtrip =
  qtest ~count:200 "request encode/decode/encode is the identity" gen_query
    (fun (id, q) ->
      let line = Pr.encode_request { Pr.id; op = Pr.Query q } in
      match Pr.decode_request line with
      | Error _ -> false
      | Ok req -> Pr.encode_request req = line)

let gen_body =
  let open QCheck2.Gen in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 10) in
  let outcome =
    let* total = int_range 1 1_000_000 in
    let* assignable = bool in
    let* rank = if assignable then int_range 0 total else return 0 in
    let* boundary = if assignable then int_range 0 1000 else return 0 in
    let* exact = bool in
    return
      (Ir_core.Outcome.v ~exact ~rank_wires:rank ~total_wires:total
         ~assignable ~boundary_bunch:boundary ())
  in
  oneof
    [
      return Pr.Pong;
      (let* kvs = list_size (int_range 0 5) (pair name (int_range 0 1000)) in
       return (Pr.Stats_reply kvs));
      (let* o = outcome in
       let* source = oneofl [ "cold"; "memory"; "disk" ] in
       return (Pr.Result { source; payload = Pr.result_payload o }));
      (let* e =
         oneof
           [
             map (fun m -> Pr.Bad_request m) name; return Pr.Overloaded;
             return Pr.Timeout; return Pr.Shutting_down;
             map (fun m -> Pr.Internal m) name;
           ]
       in
       return (Pr.Error e));
    ]

let prop_response_roundtrip =
  qtest ~count:200 "response encode/decode/encode is the identity"
    QCheck2.Gen.(
      pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)) gen_body)
    (fun (id, body) ->
      let line = Pr.encode_response { Pr.id; body } in
      match Pr.decode_response line with
      | Error _ -> false
      | Ok resp -> Pr.encode_response resp = line)

(* Wire compatibility across the power fields: a pre-power client's
   request line (no power keys) still decodes, and fingerprints exactly
   like a new client sending nothing — while the new keys survive a
   round trip and reach the fingerprint. *)
let test_protocol_power_compat () =
  let old_line =
    "{\"v\":1,\"id\":\"old\",\"op\":\"query\",\"query\":"
    ^ "{\"node\":\"130nm\",\"gates\":1000}}"
  in
  (match Pr.decode_request old_line with
  | Error e ->
      Alcotest.failf "pre-power line rejected: %s" (Pr.error_message e)
  | Ok { Pr.op = Pr.Query q; _ } ->
      let fp = ok_exn "old fp" (Pr.fingerprint_of_query q) in
      let fresh =
        ok_exn "fresh fp"
          (Pr.fingerprint_of_query (Pr.query ~node:"130nm" ~gates:1000 ()))
      in
      Alcotest.(check string) "pre-power line fingerprints as default"
        (F.digest fresh) (F.digest fp)
  | Ok _ -> Alcotest.fail "pre-power line decoded to a non-query");
  let powered =
    Pr.query ~power_budget:0.25 ~activity:0.3 ~node:"130nm" ~gates:1000 ()
  in
  let line = Pr.encode_request { Pr.id = "p"; op = Pr.Query powered } in
  match Pr.decode_request line with
  | Error e -> Alcotest.failf "powered line rejected: %s" (Pr.error_message e)
  | Ok { Pr.op = Pr.Query q; _ } ->
      Alcotest.(check string) "identity round trip" line
        (Pr.encode_request { Pr.id = "p"; op = Pr.Query q });
      let fp = ok_exn "powered fp" (Pr.fingerprint_of_query q) in
      Alcotest.(check bool) "budget reached the fingerprint" true
        (fp.F.power_budget = 0.25 && fp.F.activity = 0.3)
  | Ok _ -> Alcotest.fail "powered line decoded to a non-query"

(* ε-dominance compression is retired.  A client still sending the
   exact-mode value gets the answer — and the digest — it always got; a
   nonzero value is refused by name instead of silently answered
   exactly. *)
let test_protocol_epsilon_retired () =
  let line eps =
    "{\"v\":1,\"id\":\"e\",\"op\":\"query\",\"query\":"
    ^ "{\"node\":\"130nm\",\"gates\":1000" ^ eps ^ "}}"
  in
  let digest eps =
    match Pr.decode_request (line eps) with
    | Ok { Pr.op = Pr.Query q; _ } ->
        F.digest (ok_exn "fp" (Pr.fingerprint_of_query q))
    | Ok _ -> Alcotest.fail "decoded to a non-query"
    | Error e -> Alcotest.failf "rejected %s: %s" eps (Pr.error_message e)
  in
  let absent = digest "" in
  Alcotest.(check string) "epsilon 0 digests as absent" absent
    (digest ",\"epsilon\":0");
  Alcotest.(check string) "epsilon 0.0 digests as absent" absent
    (digest ",\"epsilon\":0.0");
  match Pr.decode_request (line ",\"epsilon\":0.1") with
  | Error (Pr.Bad_request m) ->
      Alcotest.(check bool) "the rejection names the field" true
        (Astring_contains.contains m "epsilon")
  | Error _ -> Alcotest.fail "nonzero epsilon: not a bad_request"
  | Ok _ -> Alcotest.fail "nonzero epsilon accepted"

(* Wire lines are untrusted: arbitrary bytes and single-byte edits of
   valid requests must decode or be refused with a message, never
   raise. *)
let prop_decode_request_fuzz =
  fuzz_parser "decode_request never raises on fuzzed lines"
    QCheck2.Gen.(
      oneof
        [
          map
            (fun (id, q) -> Pr.encode_request { Pr.id; op = Pr.Query q })
            gen_query;
          map
            (fun op -> Pr.encode_request { Pr.id = "f"; op })
            (oneofl [ Pr.Ping; Pr.Stats ]);
        ])
    (fun line ->
      Result.map_error Pr.error_message (Pr.decode_request line))

let test_protocol_errors () =
  let bad line =
    match Pr.decode_request line with
    | Error (Pr.Bad_request _) -> ()
    | Error _ -> Alcotest.failf "non-bad-request error for %s" line
    | Ok _ -> Alcotest.failf "accepted %s" line
  in
  bad "not json";
  bad "{}";
  bad "{\"v\":99,\"id\":\"a\",\"op\":\"ping\"}";
  bad "{\"v\":1,\"id\":\"a\",\"op\":\"frobnicate\"}";
  bad "{\"v\":1,\"id\":\"a\",\"op\":\"query\"}";
  bad "{\"v\":1,\"id\":\"a\",\"op\":\"query\",\"query\":{\"node\":\"130nm\"}}";
  Alcotest.(check bool) "overloaded retryable" true (Pr.retryable Pr.Overloaded);
  Alcotest.(check bool) "timeout not retryable" false (Pr.retryable Pr.Timeout)

(* ---- cache: LRU model check ------------------------------------------- *)

(* Reference model: MRU-first key list, no payloads.  [mem_keys_lru_first]
   must equal its reverse after any op sequence, and membership must
   agree with [find]. *)
let prop_lru_model =
  qtest ~count:300 "memory tier behaves as textbook LRU"
    QCheck2.Gen.(
      pair (int_range 1 6)
        (list_size (int_range 0 60) (pair (int_range 0 9) bool)))
    (fun (capacity, ops) ->
      let cache = Result.get_ok (C.create ~capacity ()) in
      let key k = Digest.to_hex (Digest.string (string_of_int k)) in
      let model = ref [] in
      let model_touch k =
        model := k :: List.filter (fun x -> x <> k) !model
      in
      List.for_all
        (fun (k, is_store) ->
          if is_store then begin
            C.store cache ~digest:(key k) (string_of_int k);
            model_touch k;
            (model :=
               List.filteri (fun i _ -> i < capacity) !model);
            true
          end
          else
            let hit = C.find cache ~digest:(key k) in
            let in_model = List.mem k !model in
            (match hit with
            | Some (payload, C.Memory) ->
                model_touch k;
                payload = string_of_int k
            | Some (_, C.Disk) -> false
            | None -> true)
            && Option.is_some hit = in_model)
        ops
      && C.mem_count cache = List.length !model
      && C.mem_keys_lru_first cache = List.rev_map key !model)

let test_lru_eviction_order () =
  let cache = ok_exn "cache" (C.create ~capacity:2 ()) in
  let k i = Digest.to_hex (Digest.string (string_of_int i)) in
  C.store cache ~digest:(k 1) "one";
  C.store cache ~digest:(k 2) "two";
  (* touch 1 so 2 becomes the eviction victim *)
  ignore (C.find cache ~digest:(k 1));
  C.store cache ~digest:(k 3) "three";
  Alcotest.(check bool) "2 evicted" true (C.find cache ~digest:(k 2) = None);
  Alcotest.(check bool) "1 kept" true (C.find cache ~digest:(k 1) <> None);
  Alcotest.(check int) "bounded" 2 (C.mem_count cache)

(* ---- cache: disk tier ------------------------------------------------- *)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ia_serve_test_%d_%d" (Unix.getpid ())
         (int_of_float (Unix.gettimeofday () *. 1e6) land 0xFFFFFF))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let digest_of s = Digest.to_hex (Digest.string s)

let test_disk_persistence () =
  with_temp_dir @@ fun dir ->
  let d = digest_of "q1" in
  let c1 = ok_exn "cache1" (C.create ~dir ()) in
  C.store c1 ~digest:d "payload-bytes";
  (* a fresh cache over the same directory — the restart case *)
  let c2 = ok_exn "cache2" (C.create ~dir ()) in
  (match C.find c2 ~digest:d with
  | Some ("payload-bytes", C.Disk) -> ()
  | Some (p, C.Memory) -> Alcotest.failf "unexpected memory hit %s" p
  | Some _ -> Alcotest.fail "wrong payload from disk"
  | None -> Alcotest.fail "disk entry not found");
  (* promoted: second lookup is a memory hit *)
  match C.find c2 ~digest:d with
  | Some (_, C.Memory) -> ()
  | _ -> Alcotest.fail "disk hit was not promoted to memory"

let test_disk_corruption_rejected () =
  with_temp_dir @@ fun dir ->
  let cases =
    [
      ("garbage", fun _ -> "total garbage");
      ("truncated", fun s -> String.sub s 0 (String.length s / 2));
      ( "payload flipped",
        fun s ->
          String.map (fun c -> if c = 'p' then 'q' else c) s );
      ("empty", fun _ -> "");
    ]
  in
  List.iteri
    (fun i (what, corrupt) ->
      let d = digest_of (Printf.sprintf "q%d" i) in
      let c1 = ok_exn "cache" (C.create ~dir ()) in
      C.store c1 ~digest:d "payload";
      let path = C.entry_path ~dir ~digest:d in
      let original =
        In_channel.with_open_bin path In_channel.input_all
      in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (corrupt original));
      let before = counter "serve_cache/disk_corrupt" in
      let fresh = ok_exn "fresh" (C.create ~dir ()) in
      (match C.find fresh ~digest:d with
      | None -> ()
      | Some _ -> Alcotest.failf "%s entry accepted" what);
      Alcotest.(check bool) (what ^ " counted") true
        (counter "serve_cache/disk_corrupt" = before + 1);
      Alcotest.(check bool) (what ^ " deleted") false (Sys.file_exists path))
    cases

let test_disk_digest_mismatch () =
  with_temp_dir @@ fun dir ->
  let d1 = digest_of "a" and d2 = digest_of "b" in
  let c = ok_exn "cache" (C.create ~dir ()) in
  C.store c ~digest:d1 "payload-a";
  (* a confused sync tool renames the valid entry under another digest:
     internally consistent, but it answers the wrong question *)
  Sys.rename (C.entry_path ~dir ~digest:d1) (C.entry_path ~dir ~digest:d2);
  let fresh = ok_exn "fresh" (C.create ~dir ()) in
  (match C.find fresh ~digest:d2 with
  | None -> ()
  | Some _ -> Alcotest.fail "entry accepted under the wrong digest");
  Alcotest.(check bool) "rejected entry deleted" false
    (Sys.file_exists (C.entry_path ~dir ~digest:d2))

(* An entry in the previous on-disk layout ([ia-rank/cache/1]) is never
   believed, even when its own checksum holds: it is discarded, counted,
   and the query is recomputed. *)
let test_disk_old_schema () =
  Ir_obs.reset ();
  with_temp_dir @@ fun dir ->
  let q =
    ok_exn "fp"
      (F.v ~repeater_fraction:0.35 ~bunch_size:500 ~node:"130nm"
         ~gates:20_000 ())
  in
  let d = F.digest q in
  let forged = "forged-payload" in
  let path = C.entry_path ~dir ~digest:d in
  let cache = ok_exn "cache" (C.create ~dir ()) in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.concat "\n"
           [
             "ia-rank/cache/1"; "digest: " ^ d;
             "payload-md5: " ^ digest_of forged; forged; "";
           ]));
  let srv = S.create ~workers:1 ~cache () in
  (match S.submit_query srv q with
  | Ok (payload, source) ->
      Alcotest.(check string) "recomputed, not served from disk" "cold" source;
      Alcotest.(check string) "payload = cold"
        (Pr.result_payload (F.compute_cold q))
        payload
  | Error e -> Alcotest.failf "query: %s" (Pr.error_message e));
  Alcotest.(check int) "old entry counted corrupt" 1
    (counter "serve_cache/disk_corrupt");
  S.shutdown srv;
  S.join srv

(* ---- server: differential cached = cold ------------------------------- *)

let test_differential_cached_equals_cold () =
  Ir_obs.reset ();
  let cache = ok_exn "cache" (C.create ~capacity:64 ()) in
  let srv = S.create ~workers:2 ~cache () in
  let corpus =
    [
      F.v ~bunch_size:500 ~node:"130nm" ~gates:20_000 ();
      F.v ~bunch_size:500 ~repeater_fraction:0.2 ~node:"130nm"
        ~gates:20_000 ();
      F.v ~bunch_size:500 ~repeater_fraction:0.7 ~node:"130nm"
        ~gates:20_000 ();
      F.v ~bunch_size:500 ~node:"90nm" ~gates:20_000 ();
      F.v ~bunch_size:500 ~algo:F.Greedy ~node:"130nm" ~gates:20_000 ();
      F.v ~bunch_size:400 ~clock:2.0e9 ~node:"130nm" ~gates:30_000 ();
      F.v ~bunch_size:400 ~k:2.7 ~miller:1.5 ~node:"90nm" ~gates:30_000 ();
      (let wld = Result.get_ok (Ir_wld.Io.of_string "1,500\n4,200\n9,60\n") in
       F.v ~wld ~bunch_size:100 ~node:"130nm" ~gates:5_000 ());
    ]
  in
  List.iteri
    (fun i q ->
      let q = ok_exn (Printf.sprintf "corpus %d" i) q in
      let cold = Pr.result_payload (F.compute_cold q) in
      let served =
        match S.submit_query srv q with
        | Ok (payload, _) -> payload
        | Error e -> Alcotest.failf "corpus %d: %s" i (Pr.error_message e)
      in
      Alcotest.(check string)
        (Printf.sprintf "corpus %d: served = cold" i)
        cold served;
      (* and again, now through the cache *)
      match S.submit_query srv q with
      | Ok (payload, source) ->
          Alcotest.(check string)
            (Printf.sprintf "corpus %d: cache hit identical" i)
            cold payload;
          Alcotest.(check string)
            (Printf.sprintf "corpus %d: second ask from memory" i)
            "memory" source
      | Error e -> Alcotest.failf "corpus %d: %s" i (Pr.error_message e))
    corpus;
  (* the repeater-fraction family shares one warm table build *)
  Alcotest.(check bool) "warm tables reused" true
    (counter "serve/table_hits" >= 2);
  S.shutdown srv;
  S.join srv

(* [shutdown] cannot broadcast (it may run in a signal handler), so
   [join] must wake workers parked on the condition after the ticker's
   last tick.  Without that, this exact sequence hung in [join]; the
   watchdog turns a hang into a failure instead of a stuck suite. *)
let test_join_after_shutdown () =
  let finished = Atomic.make false in
  let runner =
    Thread.create
      (fun () ->
        for _ = 1 to 20 do
          let cache = ok_exn "cache" (C.create ~capacity:4 ()) in
          let srv = S.create ~workers:1 ~cache () in
          let q = ok_exn "query" (F.v ~node:"130nm" ~gates:1000 ()) in
          (match S.submit_query srv q with
          | Ok _ -> ()
          | Error e -> failwith (Pr.error_message e));
          S.shutdown srv;
          S.join srv
        done;
        Atomic.set finished true)
      ()
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  if not (Atomic.get finished) then
    Alcotest.fail "create / query / shutdown / join did not finish in 10 s";
  Thread.join runner

(* ---- server: e2e over a unix socket ----------------------------------- *)

let temp_socket () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "ia_serve_%d_%d.sock" (Unix.getpid ())
       (int_of_float (Unix.gettimeofday () *. 1e6) land 0xFFFFFF))

let start_server srv socket =
  let th =
    Thread.create (fun () -> ok_exn "serve_unix" (S.serve_unix srv ~socket)) ()
  in
  wait_for "socket to appear" (fun () -> Sys.file_exists socket);
  th

let test_e2e_coalescing_and_restart () =
  Ir_obs.reset ();
  with_temp_dir @@ fun dir ->
  let socket = temp_socket () in
  let release = Atomic.make false in
  let started = Atomic.make false in
  let cache = ok_exn "cache" (C.create ~capacity:16 ~dir ()) in
  let srv =
    S.create ~workers:2 ~cache
      ~on_compute_start:(fun _ ->
        Atomic.set started true;
        (* hold the computation until the test saw all waiters attach *)
        while not (Atomic.get release) do
          Thread.delay 0.002
        done)
      ()
  in
  let server_thread = start_server srv socket in
  let q = Pr.query ~bunch_size:500 ~node:"130nm" ~gates:20_000 () in
  let fp = ok_exn "fp" (Pr.fingerprint_of_query q) in
  let digest = F.digest fp in
  (* 4 concurrent clients, byte-identical request lines *)
  let line = Pr.encode_request { Pr.id = "x"; op = Pr.Query q } in
  let responses = Array.make 4 "" in
  let clients =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX socket);
            let oc = Unix.out_channel_of_descr fd in
            let ic = Unix.in_channel_of_descr fd in
            output_string oc (line ^ "\n");
            flush oc;
            (match In_channel.input_line ic with
            | Some resp -> responses.(i) <- resp
            | None -> ());
            Unix.close fd)
          ())
  in
  wait_for "compute to start" (fun () -> Atomic.get started);
  wait_for "3 waiters to coalesce" (fun () ->
      S.pending_waiters srv ~digest = 3);
  Atomic.set release true;
  List.iter Thread.join clients;
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) (Printf.sprintf "client %d answered" i) true
        (String.length r > 0);
      Alcotest.(check string)
        (Printf.sprintf "client %d byte-identical" i)
        responses.(0) r)
    responses;
  Alcotest.(check int) "exactly one computation" 1 (counter "serve/computes");
  Alcotest.(check int) "three requests coalesced" 3
    (counter "serve/coalesced");
  S.shutdown srv;
  Thread.join server_thread;
  Alcotest.(check bool) "socket removed on drain" false
    (Sys.file_exists socket);
  (* restart over the same cache dir: the 5th ask hits the disk store *)
  let cache2 = ok_exn "cache2" (C.create ~capacity:16 ~dir ()) in
  let srv2 = S.create ~workers:1 ~cache:cache2 () in
  let server_thread2 = start_server srv2 socket in
  let client = ok_exn "connect" (Cl.connect ~socket) in
  (match Cl.query client q with
  | Ok (_, source, payload) ->
      let body =
        ok_exn "resp0" (Pr.decode_response responses.(0))
      in
      (match body.Pr.body with
      | Pr.Result r ->
          Alcotest.(check string) "restart payload identical" r.payload
            payload
      | _ -> Alcotest.fail "first response was not a result");
      Alcotest.(check string) "served from disk" "disk" source
  | Error e -> Alcotest.failf "restart query: %s" e);
  Cl.close client;
  S.shutdown srv2;
  Thread.join server_thread2

let fp_at f =
  ok_exn "fp"
    (F.v ~repeater_fraction:f ~bunch_size:500 ~node:"130nm" ~gates:20_000 ())

let test_e2e_shed () =
  Ir_obs.reset ();
  let release = Atomic.make false in
  let cache = ok_exn "cache" (C.create ~capacity:16 ()) in
  let srv =
    S.create ~workers:1 ~queue_capacity:1 ~cache
      ~on_compute_start:(fun _ ->
        while not (Atomic.get release) do
          Thread.delay 0.002
        done)
      ()
  in
  (* A occupies the single worker (held by the hook); B and C then race
     for the one queue slot — whichever loses is shed with the retryable
     Overloaded error while the winner completes normally. *)
  let ra = ref (Error Pr.Overloaded)
  and rb = ref (Error Pr.Overloaded)
  and rc = ref (Error Pr.Overloaded) in
  let ta = Thread.create (fun () -> ra := S.submit_query srv (fp_at 0.3)) () in
  wait_for "A to occupy the worker" (fun () -> counter "serve/computes" = 1);
  let tb = Thread.create (fun () -> rb := S.submit_query srv (fp_at 0.4)) () in
  let tc = Thread.create (fun () -> rc := S.submit_query srv (fp_at 0.5)) () in
  wait_for "one of B/C to be shed" (fun () -> counter "serve/shed" = 1);
  Atomic.set release true;
  List.iter Thread.join [ ta; tb; tc ];
  (match !ra with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "A failed: %s" (Pr.error_message e));
  let shed, served =
    List.partition (fun r -> r = Error Pr.Overloaded) [ !rb; !rc ]
  in
  Alcotest.(check int) "exactly one shed" 1 (List.length shed);
  (match served with
  | [ Ok _ ] -> ()
  | [ Error e ] ->
      Alcotest.failf "queued request failed: %s" (Pr.error_message e)
  | _ -> Alcotest.fail "expected exactly one served request");
  Alcotest.(check bool) "overloaded is retryable" true
    (Pr.retryable Pr.Overloaded);
  (* draining refuses new queries *)
  S.shutdown srv;
  (match S.submit_query srv (fp_at 0.6) with
  | Error Pr.Shutting_down -> ()
  | Ok _ -> Alcotest.fail "query accepted while draining"
  | Error e ->
      Alcotest.failf "expected shutting down, got %s" (Pr.error_message e));
  S.join srv

let test_e2e_timeout () =
  Ir_obs.reset ();
  let release = Atomic.make false in
  let cache = ok_exn "cache" (C.create ~capacity:16 ()) in
  let srv =
    S.create ~workers:1 ~request_timeout:0.15 ~cache
      ~on_compute_start:(fun _ ->
        while not (Atomic.get release) do
          Thread.delay 0.002
        done)
      ()
  in
  (* The hook holds the computation past the 0.15 s deadline: the waiter
     is released with Timeout… *)
  (match S.submit_query srv (fp_at 0.3) with
  | Error Pr.Timeout -> ()
  | Ok _ -> Alcotest.fail "expected a timeout"
  | Error e -> Alcotest.failf "expected timeout, got %s" (Pr.error_message e));
  Alcotest.(check int) "timeout counted" 1 (counter "serve/timeouts");
  (* …but the computation itself still completes and publishes, so the
     next asker gets a memory hit. *)
  Atomic.set release true;
  wait_for "the abandoned result to be cached" (fun () ->
      C.find cache ~digest:(F.digest (fp_at 0.3)) <> None);
  (match S.submit_query srv (fp_at 0.3) with
  | Ok (_, "memory") -> ()
  | Ok (_, s) -> Alcotest.failf "expected memory hit, got %s" s
  | Error e -> Alcotest.failf "post-timeout ask: %s" (Pr.error_message e));
  S.shutdown srv;
  S.join srv

(* ---- hostile clients: disconnects, fd churn, oversized lines ---------- *)

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let send_raw fd s = ignore (Unix.write_substring fd s 0 (String.length s))

(* A client that hangs up between request and response must cost the
   server one failed write — the historical behaviour was death by
   SIGPIPE on the response write. *)
let test_e2e_disconnect_mid_response () =
  Ir_obs.reset ();
  let release = Atomic.make false in
  let started = Atomic.make false in
  let cache = ok_exn "cache" (C.create ~capacity:16 ()) in
  let srv =
    S.create ~workers:1 ~cache
      ~on_compute_start:(fun _ ->
        Atomic.set started true;
        while not (Atomic.get release) do
          Thread.delay 0.002
        done)
      ()
  in
  let socket = temp_socket () in
  let server_thread = start_server srv socket in
  let q = Pr.query ~bunch_size:500 ~node:"130nm" ~gates:20_000 () in
  let fd = raw_connect socket in
  send_raw fd (Pr.encode_request { Pr.id = "gone"; op = Pr.Query q } ^ "\n");
  wait_for "compute to start" (fun () -> Atomic.get started);
  (* The client vanishes while its answer is still being computed. *)
  Unix.close fd;
  Atomic.set release true;
  wait_for "the response write to fail" (fun () ->
      counter "serve_net/write_failures" >= 1);
  wait_for "the dead connection to unregister" (fun () ->
      S.live_connections srv = 0);
  (* The daemon survived: a second client gets the (cached) answer. *)
  let client = ok_exn "connect" (Cl.connect ~socket) in
  (match Cl.query client q with
  | Ok (_, source, _) -> Alcotest.(check string) "from cache" "memory" source
  | Error e -> Alcotest.failf "query after disconnect: %s" e);
  Cl.close client;
  S.shutdown srv;
  Thread.join server_thread

(* Rapid connect/disconnect churn — instant hangups, garbage lines,
   half-written requests — must leave zero registered connections and a
   server that still answers.  The historical connection list grew
   without bound and, at drain, shut down already-closed (reusable) fd
   numbers. *)
let test_e2e_fd_churn_storm () =
  Ir_obs.reset ();
  let cache = ok_exn "cache" (C.create ~capacity:16 ()) in
  let srv = S.create ~workers:1 ~cache () in
  let socket = temp_socket () in
  let server_thread = start_server srv socket in
  for i = 0 to 59 do
    let fd = raw_connect socket in
    (match i mod 3 with
    | 0 -> () (* connect and vanish *)
    | 1 ->
        (* garbage request: server answers Bad_request, client vanishes
           without reading it *)
        send_raw fd "this is not json\n"
    | _ ->
        (* half a request line, then gone *)
        send_raw fd "{\"v\":1,\"id\":\"trunc");
    Unix.close fd
  done;
  (* The accept loop may still be draining the listen backlog: wait for
     every churned connection to have been accepted AND unregistered. *)
  wait_for "every churned connection to unregister" (fun () ->
      counter "serve_net/connections" >= 60 && S.live_connections srv = 0);
  let client = ok_exn "connect" (Cl.connect ~socket) in
  ok_exn "ping after the storm" (Cl.ping client);
  Cl.close client;
  S.shutdown srv;
  Thread.join server_thread;
  Alcotest.(check bool) "socket removed on drain" false
    (Sys.file_exists socket)

(* A request line over the 8 MiB bound is answered with Bad_request and
   the connection is dropped — bounded memory per connection, no
   [input_line]-style unbounded buffering. *)
let test_e2e_overlong_line () =
  Ir_obs.reset ();
  let cache = ok_exn "cache" (C.create ~capacity:16 ()) in
  let srv = S.create ~workers:1 ~cache () in
  let socket = temp_socket () in
  let server_thread = start_server srv socket in
  let fd = raw_connect socket in
  (* Exactly one byte over the bound: the server must consume every
     byte before it can detect the overflow, so its close after the
     Bad_request answer is a clean FIN (closing with unread inbound
     data would RST the response away). *)
  let chunk = String.make 65536 'a' in
  let n = Ir_serve.Tcp.default_max_line / String.length chunk in
  for _ = 1 to n do
    send_raw fd chunk
  done;
  send_raw fd "a";
  let ic = Unix.in_channel_of_descr fd in
  (match In_channel.input_line ic with
  | None -> Alcotest.fail "no response to an overlong line"
  | Some line -> (
      let resp = ok_exn "decode" (Pr.decode_response line) in
      match resp.Pr.body with
      | Pr.Error (Pr.Bad_request _) -> ()
      | _ -> Alcotest.fail "expected Bad_request for an overlong line"));
  Alcotest.(check bool) "connection dropped after the flood" true
    (In_channel.input_line ic = None);
  Unix.close fd;
  Alcotest.(check int) "overlong line counted" 1
    (counter "serve_net/overlong_lines");
  S.shutdown srv;
  Thread.join server_thread

(* The stdio transport has the socket paths' bound: a line over 8 MiB
   is answered with Bad_request, counted, and ends the loop while its
   input is still open. *)
let test_stdio_overlong_line () =
  Ir_obs.reset ();
  let cache = ok_exn "cache" (C.create ~capacity:16 ()) in
  let srv = S.create ~workers:1 ~cache () in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let ended = Atomic.make false in
  let loop =
    Thread.create
      (fun () ->
        S.serve_stdio srv in_r out_w;
        Atomic.set ended true)
      ()
  in
  let chunk = String.make 65536 'a' in
  for _ = 1 to Ir_serve.Tcp.default_max_line / String.length chunk do
    send_raw in_w chunk
  done;
  send_raw in_w "a";
  wait_for ~timeout:30.0 "the stdio loop to end" (fun () -> Atomic.get ended);
  Thread.join loop;
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  (match In_channel.input_line ic with
  | None -> Alcotest.fail "no response to an overlong line"
  | Some line -> (
      match (ok_exn "decode" (Pr.decode_response line)).Pr.body with
      | Pr.Error (Pr.Bad_request _) -> ()
      | _ -> Alcotest.fail "expected Bad_request for an overlong line"));
  Alcotest.(check bool) "one answer only" true
    (In_channel.input_line ic = None);
  Alcotest.(check int) "overlong line counted" 1
    (counter "serve_net/overlong_lines");
  In_channel.close ic;
  Unix.close in_r;
  Unix.close in_w;
  S.shutdown srv;
  S.join srv

(* ---- cache: write failures and temp-file hygiene ---------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let temp_path tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "ia_serve_%s_%d_%d" tag (Unix.getpid ())
       (int_of_float (Unix.gettimeofday () *. 1e6) land 0xFFFFFF))

(* The disk tier failing must degrade the daemon, not stop it: a store
   that cannot write counts [disk_errors] and the query is still served
   from memory. *)
let test_cache_write_failure_keeps_serving () =
  Ir_obs.reset ();
  let dir = temp_path "badcache" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cache = ok_exn "cache" (C.create ~capacity:16 ~dir ()) in
  (* Yank the directory out from under the running cache: every disk
     write from here on fails at [temp_file]. *)
  rm_rf dir;
  Out_channel.with_open_bin dir (fun _ -> ());
  let srv = S.create ~workers:1 ~cache () in
  let q = fp_at 0.3 in
  (match S.submit_query srv q with
  | Ok (payload, _) ->
      Alcotest.(check string) "served despite the disk failure"
        (Pr.result_payload (F.compute_cold q))
        payload
  | Error e -> Alcotest.failf "query: %s" (Pr.error_message e));
  Alcotest.(check bool) "disk error counted" true
    (counter "serve_cache/disk_errors" >= 1);
  (match S.submit_query srv q with
  | Ok (_, "memory") -> ()
  | Ok (_, s) -> Alcotest.failf "expected memory hit, got %s" s
  | Error e -> Alcotest.failf "second ask: %s" (Pr.error_message e));
  S.shutdown srv;
  S.join srv

(* Crash-orphaned temp files are reaped on cache open; a live writer's
   fresh temp file is left alone. *)
let test_cache_tmp_sweep () =
  Ir_obs.reset ();
  let dir = temp_path "tmpsweep" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let _ = ok_exn "cache" (C.create ~dir ()) in
  let stale = Filename.concat dir ".deadbeef.1234.tmp" in
  let fresh = Filename.concat dir ".cafe.5678.tmp" in
  Out_channel.with_open_bin stale (fun oc ->
      Out_channel.output_string oc "orphan");
  Unix.utimes stale 1.0 1.0;
  Out_channel.with_open_bin fresh (fun oc ->
      Out_channel.output_string oc "in-flight");
  let _ = ok_exn "cache2" (C.create ~dir ()) in
  Alcotest.(check int) "stale orphan swept" 1 (counter "serve_cache/tmp_swept");
  Alcotest.(check bool) "stale orphan removed" false (Sys.file_exists stale);
  Alcotest.(check bool) "fresh temp file untouched" true
    (Sys.file_exists fresh)

(* Several processes hammering one cache directory — concurrent writers
   racing renames, readers opening mid-traffic — must never produce a
   torn or wrong read.  Atomic temp-file + rename is the claim; this is
   the multi-process proof. *)
let test_cache_multiprocess_hammer () =
  Ir_obs.reset ();
  let dir = temp_path "hammer" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let entries =
    List.init 12 (fun i ->
        (digest_of (Printf.sprintf "hammer-%d" i),
         Printf.sprintf "payload-%d-%s" i (String.make (100 * i) 'x')))
  in
  let writer () =
    match Unix.fork () with
    | 0 ->
        (* Child: its own cache over the shared directory, storing every
           entry repeatedly.  [_exit], not [exit]: the child must not
           flush channels it shares with the parent. *)
        (try
           match C.create ~dir () with
           | Error _ -> Unix._exit 1
           | Ok c ->
               for _ = 1 to 25 do
                 List.iter
                   (fun (digest, payload) -> C.store c ~digest payload)
                   entries
               done;
               Unix._exit 0
         with _ -> Unix._exit 1)
    | pid -> pid
  in
  let pids = List.init 3 (fun _ -> writer ()) in
  (* Parent: read through fresh caches while the writers race.  Every
     observed entry must be complete and correct — a torn rename would
     surface as either corruption (counted) or a wrong payload. *)
  let before_corrupt = counter "serve_cache/disk_corrupt" in
  for _ = 1 to 40 do
    let c = ok_exn "reader cache" (C.create ~dir ()) in
    List.iter
      (fun (digest, payload) ->
        match C.find c ~digest with
        | None -> () (* not yet written: a miss, never a torn read *)
        | Some (p, _) ->
            Alcotest.(check string) "no torn or wrong payload" payload p)
      entries;
    Thread.delay 0.005
  done;
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "writer process failed")
    pids;
  Alcotest.(check int) "no live-race corruption" before_corrupt
    (counter "serve_cache/disk_corrupt");
  (* Steady state: every entry present and byte-correct. *)
  let c = ok_exn "final cache" (C.create ~dir ()) in
  List.iter
    (fun (digest, payload) ->
      match C.find c ~digest with
      | Some (p, _) -> Alcotest.(check string) "final payload" payload p
      | None -> Alcotest.fail "entry missing after the hammer")
    entries

(* ---- warm-table snapshots --------------------------------------------- *)

module Sn = Ir_serve.Snapshot

(* A snapshot file in the disk store's layout, written by hand: a header
   with [tag] and the recorded key and a valid MD5 of [blob]. *)
let write_entry ~tag path ~key blob =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.concat ""
           [
             tag; "\nkey: "; key; "\nblob-md5: ";
             Digest.to_hex (Digest.string blob); "\nblob-bytes: ";
             string_of_int (String.length blob); "\n"; blob;
           ]))

(* The restore problem of a load that must not build one: a miss or a
   corrupt entry. *)
let must_not_build () = Alcotest.fail "the restore problem was built"

(* Every decode-error counter, summed. *)
let decode_errors () =
  List.fold_left
    (fun acc e ->
      acc
      + counter
          ("serve_snapshot/decode_" ^ Ir_core.Rank_dp.decode_error_name e))
    0 Ir_core.Rank_dp.decode_errors

(* A restarted server answers warm: the first server persists its built
   family tables, the second restores them instead of rebuilding — and
   the restored answer is byte-identical to a cold compute. *)
let test_snapshot_warm_restart () =
  Ir_obs.reset ();
  let dir = temp_path "snap" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let snapshot = ok_exn "snapshot" (Sn.create ~dir) in
  let cache = ok_exn "cache" (C.create ~capacity:16 ()) in
  let srv = S.create ~workers:1 ~snapshot ~cache () in
  let q = fp_at 0.3 in
  let key = F.table_key q in
  (match S.submit_query srv q with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first ask: %s" (Pr.error_message e));
  Alcotest.(check int) "family built once" 1 (counter "serve/table_builds");
  wait_for "the snapshot to land on disk" (fun () ->
      Sys.file_exists (Sn.entry_path snapshot ~key));
  Alcotest.(check int) "save counted" 1 (counter "serve_snapshot/saves");
  S.shutdown srv;
  S.join srv;
  (* Restart: fresh server, fresh cache, same snapshot directory.  A
     different fraction of the same family must restore, not rebuild. *)
  Ir_obs.reset ();
  let snapshot2 = ok_exn "snapshot2" (Sn.create ~dir) in
  let cache2 = ok_exn "cache2" (C.create ~capacity:16 ()) in
  let srv2 = S.create ~workers:1 ~snapshot:snapshot2 ~cache:cache2 () in
  let q2 = fp_at 0.55 in
  (match S.submit_query srv2 q2 with
  | Ok (payload, _) ->
      Alcotest.(check string) "restored answer = cold"
        (Pr.result_payload (F.compute_cold q2))
        payload
  | Error e -> Alcotest.failf "warm-restart ask: %s" (Pr.error_message e));
  Alcotest.(check int) "tables restored, not rebuilt" 1
    (counter "serve/table_restores");
  Alcotest.(check int) "no rebuild" 0 (counter "serve/table_builds");
  S.shutdown srv2;
  S.join srv2

(* A corrupted snapshot is discarded (and counted), never deserialized:
   the server falls back to a cold build and still answers correctly. *)
let test_snapshot_corrupt_fallback () =
  Ir_obs.reset ();
  let dir = temp_path "snapcorrupt" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let snapshot = ok_exn "snapshot" (Sn.create ~dir) in
  let cache = ok_exn "cache" (C.create ~capacity:16 ()) in
  let srv = S.create ~workers:1 ~snapshot ~cache () in
  let q = fp_at 0.3 in
  let key = F.table_key q in
  (match S.submit_query srv q with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "seed ask: %s" (Pr.error_message e));
  wait_for "the snapshot to land on disk" (fun () ->
      Sys.file_exists (Sn.entry_path snapshot ~key));
  S.shutdown srv;
  S.join srv;
  (* Truncate the snapshot mid-blob. *)
  let path = Sn.entry_path snapshot ~key in
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub bytes 0 (String.length bytes / 2)));
  Ir_obs.reset ();
  let snapshot2 = ok_exn "snapshot2" (Sn.create ~dir) in
  let cache2 = ok_exn "cache2" (C.create ~capacity:16 ()) in
  let srv2 = S.create ~workers:1 ~snapshot:snapshot2 ~cache:cache2 () in
  (match S.submit_query srv2 q with
  | Ok (payload, _) ->
      Alcotest.(check string) "fallback answer = cold"
        (Pr.result_payload (F.compute_cold q))
        payload
  | Error e -> Alcotest.failf "post-corruption ask: %s" (Pr.error_message e));
  Alcotest.(check bool) "corruption counted" true
    (counter "serve_snapshot/corrupt" >= 1);
  Alcotest.(check int) "rebuilt cold" 1 (counter "serve/table_builds");
  (* The corrupt file was discarded, then the rebuild re-saved a fresh
     valid snapshot over it. *)
  Alcotest.(check int) "fresh snapshot re-saved" 1
    (counter "serve_snapshot/saves");
  S.shutdown srv2;
  S.join srv2

(* A snapshot republished under a different family's key, or with bits
   flipped anywhere in it, is rejected by the store before the decoder
   sees a byte or the restore problem is built — load returns [None],
   counts the corruption and discards the file, never crashes.  Fuzz
   companion to the decode_tables fuzz in test_core. *)
let test_snapshot_hostile_payloads () =
  Ir_obs.reset ();
  let dir = temp_path "snaphostile" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let snapshot = ok_exn "snapshot" (Sn.create ~dir) in
  let cache = ok_exn "cache" (C.create ~capacity:16 ()) in
  let srv = S.create ~workers:1 ~snapshot ~cache () in
  let q = fp_at 0.3 in
  let key = F.table_key q in
  (match S.submit_query srv q with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "seed ask: %s" (Pr.error_message e));
  wait_for "the snapshot to land on disk" (fun () ->
      Sys.file_exists (Sn.entry_path snapshot ~key));
  S.shutdown srv;
  S.join srv;
  let path = Sn.entry_path snapshot ~key in
  let pristine = In_channel.with_open_bin path In_channel.input_all in
  let full fp =
    Ir_assign.Problem.with_repeater_fraction (F.problem fp) 1.0
  in
  (* Sanity: the pristine file restores. *)
  (match Sn.load snapshot ~key ~problem:(fun () -> full q) with
  | Some _ -> ()
  | None -> Alcotest.fail "pristine snapshot did not restore");
  (* A miss builds no problem. *)
  let misses = counter "serve_snapshot/misses" in
  let absent =
    ok_exn "absent"
      (F.v ~k:3.1 ~repeater_fraction:0.3 ~bunch_size:500 ~node:"130nm"
         ~gates:20_000 ())
  in
  (match
     Sn.load snapshot ~key:(F.table_key absent) ~problem:must_not_build
   with
  | None -> ()
  | Some _ -> Alcotest.fail "absent snapshot restored");
  Alcotest.(check int) "absent counted a miss" (misses + 1)
    (counter "serve_snapshot/misses");
  (* Wrong key: the same bytes republished under a neighboring family's
     key are rejected by the header's recorded key — a snapshot cannot
     be aliased onto a different problem. *)
  let q_wrong =
    ok_exn "neighbor"
      (F.v ~k:2.7 ~repeater_fraction:0.3 ~bunch_size:500 ~node:"130nm"
         ~gates:20_000 ())
  in
  let wrong_key = F.table_key q_wrong in
  let wrong_path = Sn.entry_path snapshot ~key:wrong_key in
  Out_channel.with_open_bin wrong_path (fun oc ->
      Out_channel.output_string oc pristine);
  let corrupt_before = counter "serve_snapshot/corrupt" in
  (match Sn.load snapshot ~key:wrong_key ~problem:must_not_build with
  | None -> ()
  | Some _ -> Alcotest.fail "wrong-key snapshot accepted");
  Alcotest.(check int) "wrong key counted corrupt" (corrupt_before + 1)
    (counter "serve_snapshot/corrupt");
  Alcotest.(check bool) "wrong-key file discarded" false
    (Sys.file_exists wrong_path);
  (* Bit flips, from the header through the deep blob: every one is
     caught by the tag / key / length / MD5 ladder before the decoder
     sees a byte. *)
  let len = String.length pristine in
  List.iter
    (fun offset ->
      let corrupted = Bytes.of_string pristine in
      Bytes.set corrupted offset
        (Char.chr (Char.code (Bytes.get corrupted offset) lxor 0x20));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc corrupted);
      match Sn.load snapshot ~key ~problem:must_not_build with
      | None -> ()
      | Some _ -> Alcotest.failf "bit flip at %d accepted" offset)
    [ 3; 40; len / 2; (3 * len / 4) + 1; len - 1 ];
  (* Truncations at every scale, including an empty file. *)
  List.iter
    (fun keep ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub pristine 0 keep));
      match Sn.load snapshot ~key ~problem:must_not_build with
      | None -> ()
      | Some _ -> Alcotest.failf "truncation to %d bytes accepted" keep)
    [ 0; 1; 10; len / 3; len - 1 ];
  Alcotest.(check int) "nothing reached the decoder" 0 (decode_errors ());
  (* End to end: a server facing the wrong-key file rebuilds cold and
     still answers byte-identically. *)
  Out_channel.with_open_bin wrong_path (fun oc ->
      Out_channel.output_string oc pristine);
  Ir_obs.reset ();
  let snapshot2 = ok_exn "snapshot2" (Sn.create ~dir) in
  let cache2 = ok_exn "cache2" (C.create ~capacity:16 ()) in
  let srv2 = S.create ~workers:1 ~snapshot:snapshot2 ~cache:cache2 () in
  (match S.submit_query srv2 q_wrong with
  | Ok (payload, _) ->
      Alcotest.(check string) "post-rejection answer = cold"
        (Pr.result_payload (F.compute_cold q_wrong))
        payload
  | Error e -> Alcotest.failf "post-rejection ask: %s" (Pr.error_message e));
  Alcotest.(check bool) "server counted the corruption" true
    (counter "serve_snapshot/corrupt" >= 1);
  Alcotest.(check int) "server rebuilt cold" 1 (counter "serve/table_builds");
  S.shutdown srv2;
  S.join srv2

(* A snapshot written under the previous schema tag is discarded as
   corrupt — exactly once — and never decoded, even when its header MD5
   is valid and its bytes are the very blob the current codec would
   restore: the tag alone retires it.  The server rebuilds and answers
   as a cold compute would. *)
let test_snapshot_old_schema () =
  Ir_obs.reset ();
  let dir = temp_path "snapschema" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let snapshot = ok_exn "snapshot" (Sn.create ~dir) in
  let q = fp_at 0.3 in
  let key = F.table_key q in
  let tables =
    Ir_core.Rank_dp.build_tables
      (Ir_assign.Problem.with_repeater_fraction (F.problem q) 1.0)
  in
  write_entry ~tag:"ia-rank/table-snapshot/3" (Sn.entry_path snapshot ~key)
    ~key
    (Ir_core.Rank_dp.encode_tables tables);
  let cache = ok_exn "cache" (C.create ~capacity:16 ()) in
  let srv = S.create ~workers:1 ~snapshot ~cache () in
  let corrupt_before = counter "serve_snapshot/corrupt" in
  (match S.submit_query srv q with
  | Ok (payload, _) ->
      Alcotest.(check string) "answer = cold"
        (Pr.result_payload (F.compute_cold q))
        payload
  | Error e -> Alcotest.failf "ask: %s" (Pr.error_message e));
  Alcotest.(check int) "old schema counted corrupt once" (corrupt_before + 1)
    (counter "serve_snapshot/corrupt");
  Alcotest.(check int) "never decoded" 0 (decode_errors ());
  Alcotest.(check int) "nothing restored" 0 (counter "serve/table_restores");
  Alcotest.(check int) "rebuilt" 1 (counter "serve/table_builds");
  S.shutdown srv;
  S.join srv

(* A verified entry whose blob the decoder rejects is counted under its
   error and as corrupt, and discarded; the server then rebuilds.  The
   blob is the family's own, with one count made negative and the
   payload's digest re-prefixed, so only the structural check can catch
   it. *)
let test_snapshot_decode_error () =
  Ir_obs.reset ();
  let dir = temp_path "snapdecode" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let snapshot = ok_exn "snapshot" (Sn.create ~dir) in
  let q = fp_at 0.3 in
  let key = F.table_key q in
  let full = Ir_assign.Problem.with_repeater_fraction (F.problem q) 1.0 in
  let blob = Ir_core.Rank_dp.encode_tables (Ir_core.Rank_dp.build_tables full) in
  (* The root state, the first after the 40-byte header and one int32
     length per cell; its count follows its 8 area bytes. *)
  let cells =
    Ir_assign.Problem.n_pairs full * (Ir_assign.Problem.n_bunches full + 1)
  in
  let b = Bytes.of_string blob in
  Bytes.set_int64_le b (16 + 40 + (4 * cells) + 8) (-1L);
  let payload = Bytes.sub_string b 16 (Bytes.length b - 16) in
  let path = Sn.entry_path snapshot ~key in
  write_entry ~tag:"ia-rank/table-snapshot/4" path ~key
    (Digest.string payload ^ payload);
  let built = ref 0 in
  (match
     Sn.load snapshot ~key ~problem:(fun () ->
         incr built;
         full)
   with
  | None -> ()
  | Some _ -> Alcotest.fail "a negative count restored");
  Alcotest.(check int) "problem built once, after verification" 1 !built;
  Alcotest.(check int) "counted under its error" 1
    (counter "serve_snapshot/decode_bad_count");
  Alcotest.(check int) "no other decode error" 1 (decode_errors ());
  Alcotest.(check int) "counted corrupt" 1 (counter "serve_snapshot/corrupt");
  Alcotest.(check bool) "discarded" false (Sys.file_exists path);
  write_entry ~tag:"ia-rank/table-snapshot/4" path ~key
    (Digest.string payload ^ payload);
  let cache = ok_exn "cache" (C.create ~capacity:16 ()) in
  let srv = S.create ~workers:1 ~snapshot ~cache () in
  (match S.submit_query srv q with
  | Ok (answer, _) ->
      Alcotest.(check string) "answer = cold"
        (Pr.result_payload (F.compute_cold q))
        answer
  | Error e -> Alcotest.failf "ask: %s" (Pr.error_message e));
  Alcotest.(check int) "server counted it" 2
    (counter "serve_snapshot/decode_bad_count");
  Alcotest.(check int) "nothing restored" 0 (counter "serve/table_restores");
  Alcotest.(check int) "rebuilt" 1 (counter "serve/table_builds");
  S.shutdown srv;
  S.join srv

(* ---- resident grid pool ----------------------------------------------- *)

(* Neighboring queries of one family are answered from a single resident
   grid: a new (k, clock) plane grows the warm grid (serve/grid_hits)
   instead of starting a fresh pool entry cold, fraction variants rebind
   a resident plane's budget (serve/table_hits), and every served
   payload stays byte-identical to a cold computation. *)
let test_grid_neighbor_warm () =
  Ir_obs.reset ();
  let cache = ok_exn "cache" (C.create ~capacity:16 ()) in
  let srv = S.create ~workers:1 ~cache () in
  let fp ?k ?clock f =
    ok_exn "fp"
      (F.v ?k ?clock ~repeater_fraction:f ~bunch_size:500 ~node:"130nm"
         ~gates:20_000 ())
  in
  let ask what q =
    match S.submit_query srv q with
    | Ok (payload, _) ->
        Alcotest.(check string) (what ^ " = cold")
          (Pr.result_payload (F.compute_cold q))
          payload
    | Error e -> Alcotest.failf "%s: %s" what (Pr.error_message e)
  in
  ask "base plane" (fp 0.3);
  Alcotest.(check int) "base plane built" 1 (counter "serve/table_builds");
  Alcotest.(check int) "no grid hit yet" 0 (counter "serve/grid_hits");
  ask "low-k neighbor" (fp ~k:2.7 0.3);
  Alcotest.(check int) "k plane grew the resident grid" 1
    (counter "serve/grid_hits");
  Alcotest.(check int) "k plane built" 2 (counter "serve/table_builds");
  ask "clock neighbor" (fp ~clock:1.0e9 0.3);
  Alcotest.(check int) "clock plane grew the grid" 2
    (counter "serve/grid_hits");
  Alcotest.(check int) "clock plane built" 3 (counter "serve/table_builds");
  let hits = counter "serve/table_hits" in
  ask "fraction rebind on the base plane" (fp 0.25);
  ask "fraction rebind on the k plane" (fp ~k:2.7 0.6);
  Alcotest.(check int) "fraction variants hit resident planes" (hits + 2)
    (counter "serve/table_hits");
  Alcotest.(check int) "no further builds" 3 (counter "serve/table_builds");
  Alcotest.(check int) "nothing fell to the cold path" 0
    (counter "serve/cold_computes");
  S.shutdown srv;
  S.join srv

(* With room for one resident family, alternating between two families
   evicts the other's grid at every switch: each query rebuilds its
   plane, and every payload still equals a cold computation. *)
let test_pool_eviction () =
  Ir_obs.reset ();
  let cache = ok_exn "cache" (C.create ~capacity:64 ()) in
  let srv = S.create ~workers:1 ~table_pool:1 ~cache () in
  List.iteri
    (fun i f ->
      let node = if i mod 2 = 0 then "130nm" else "90nm" in
      let q =
        ok_exn "fp"
          (F.v ~repeater_fraction:f ~bunch_size:500 ~node ~gates:20_000 ())
      in
      (match S.submit_query srv q with
      | Ok (payload, _) ->
          Alcotest.(check string)
            (Printf.sprintf "%s at %.1f = cold" node f)
            (Pr.result_payload (F.compute_cold q))
            payload
      | Error e -> Alcotest.failf "query: %s" (Pr.error_message e));
      Alcotest.(check int)
        (Printf.sprintf "switch %d rebuilt the evicted family" i)
        (i + 1)
        (counter "serve/table_builds"))
    [ 0.2; 0.3; 0.4; 0.5; 0.6; 0.7 ];
  Alcotest.(check int) "every answer warm" 0 (counter "serve/cold_computes");
  S.shutdown srv;
  S.join srv

(* A power budget is an area cap on the same budget, so a powered DP
   query on a warm family is one phase-B search over the resident plane:
   no cold compute, no build, and the payload still byte-identical to a
   cold computation — at the default activity and at another one. *)
let test_grid_powered_warm () =
  Ir_obs.reset ();
  let cache = ok_exn "cache" (C.create ~capacity:16 ()) in
  let srv = S.create ~workers:1 ~cache () in
  let fp ?power_budget ?activity f =
    ok_exn "fp"
      (F.v ?power_budget ?activity ~repeater_fraction:f ~bunch_size:500
         ~node:"130nm" ~gates:20_000 ())
  in
  let ask what q =
    match S.submit_query srv q with
    | Ok (payload, _) ->
        Alcotest.(check string) (what ^ " = cold")
          (Pr.result_payload (F.compute_cold q))
          payload
    | Error e -> Alcotest.failf "%s: %s" what (Pr.error_message e)
  in
  ask "base plane" (fp 0.3);
  let base = F.problem (fp 0.3) in
  let p_inf =
    match Ir_core.Rank_grid.compute base with
    | _, Some w -> Ir_power.Power.of_witness base w
    | _, None -> Alcotest.fail "base unassignable"
  in
  let hits = counter "serve/table_hits" in
  ask "half the base spend" (fp ~power_budget:(0.5 *. p_inf) 0.3);
  ask "the base spend" (fp ~power_budget:p_inf 0.3);
  ask "another activity" (fp ~power_budget:(0.5 *. p_inf) ~activity:0.3 0.6);
  Alcotest.(check int) "powered queries hit the resident plane" (hits + 3)
    (counter "serve/table_hits");
  Alcotest.(check int) "no further builds" 1 (counter "serve/table_builds");
  Alcotest.(check int) "nothing fell to the cold path" 0
    (counter "serve/cold_computes");
  S.shutdown srv;
  S.join srv

(* A family whose full-budget plane still truncates after the widen
   ladder (the 8-layer 90nm/10M design): the resident plane answers its
   own build budget, fraction 1.0, by a search of its own tables, and a
   narrower fraction, which a truncated front cannot answer, falls to
   the cold path.  Both payloads are byte-identical to cold computes. *)
let test_grid_truncated_plane_served () =
  Ir_obs.reset ();
  let cache = ok_exn "cache" (C.create ~capacity:16 ()) in
  let srv = S.create ~workers:1 ~cache () in
  let structure =
    { Ir_ia.Arch.local_pairs = 1; semi_global_pairs = 3; global_pairs = 1 }
  in
  let fp f =
    ok_exn "fp"
      (F.v ~structure ~repeater_fraction:f ~node:"90nm" ~gates:10_000_000 ())
  in
  let ask what q =
    let cold = F.compute_cold q in
    (match S.submit_query srv q with
    | Ok (payload, _) ->
        Alcotest.(check string) (what ^ " = cold") (Pr.result_payload cold)
          payload
    | Error e -> Alcotest.failf "%s: %s" what (Pr.error_message e));
    cold
  in
  let full = ask "full budget" (fp 1.0) in
  Alcotest.(check bool) "the full-budget plane truncates" false
    full.Ir_core.Outcome.exact;
  Alcotest.(check int) "the plane answers its own budget" 0
    (counter "serve/cold_computes");
  ignore (ask "a narrower fraction" (fp 0.4));
  Alcotest.(check int) "only the narrower fraction is cold" 1
    (counter "serve/cold_computes");
  Alcotest.(check int) "one plane built" 1 (counter "serve/table_builds");
  S.shutdown srv;
  S.join srv

(* ---- sharded fleet over TCP ------------------------------------------- *)

module Sh = Ir_serve.Shard

let ia_rank_exe () =
  let abs p =
    if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
  in
  let candidate =
    match Sys.getenv_opt "IA_RANK_EXE" with
    | Some p when p <> "" -> abs p
    | _ ->
        (* test_serve.exe lives in _build/default/test/; the CLI binary
           is a declared test dep at _build/default/bin/ia_rank.exe. *)
        Filename.concat
          (Filename.dirname (Filename.dirname (abs Sys.executable_name)))
          (Filename.concat "bin" "ia_rank.exe")
  in
  if Sys.file_exists candidate then candidate
  else Alcotest.failf "ia_rank binary not found at %s" candidate

(* The acceptance bar for sharding: a mixed corpus asked through the
   TCP router of a forked 2-shard fleet answers byte-identically to
   local cold computes, and no warm-table family is built by more than
   one shard. *)
let test_sharded_tcp_byte_identity () =
  Ir_obs.reset ();
  let dir = temp_path "fleet" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let fleet =
    ok_exn "fleet"
      (Sh.start ~workers:1 ~exe:(ia_rank_exe ()) ~shards:2 ~dir ())
  in
  let port_set = Atomic.make 0 in
  let serve_thread =
    Thread.create
      (fun () ->
        ok_exn "shard serve"
          (Sh.serve fleet
             ~tcp:("127.0.0.1", 0)
             ~on_tcp_listen:(fun p -> Atomic.set port_set p)
             ()))
      ()
  in
  wait_for "the router to listen" (fun () -> Atomic.get port_set <> 0);
  let port = Atomic.get port_set in
  let corpus =
    [
      Pr.query ~bunch_size:500 ~repeater_fraction:0.3 ~node:"130nm"
        ~gates:20_000 ();
      Pr.query ~bunch_size:500 ~repeater_fraction:0.5 ~node:"130nm"
        ~gates:20_000 ();
      Pr.query ~bunch_size:500 ~repeater_fraction:0.3 ~node:"90nm"
        ~gates:20_000 ();
      Pr.query ~bunch_size:500 ~repeater_fraction:0.5 ~node:"90nm"
        ~gates:20_000 ();
      Pr.query ~bunch_size:500 ~greedy:true ~node:"130nm" ~gates:20_000 ();
    ]
  in
  let client = ok_exn "tcp connect" (Cl.connect_tcp ~host:"127.0.0.1" ~port) in
  List.iteri
    (fun i q ->
      let fp = ok_exn "fp" (Pr.fingerprint_of_query q) in
      match Cl.query client q with
      | Ok (_, _, payload) ->
          Alcotest.(check string)
            (Printf.sprintf "corpus %d: sharded = cold" i)
            (Pr.result_payload (F.compute_cold fp))
            payload
      | Error e -> Alcotest.failf "corpus %d: %s" i e)
    corpus;
  (* Family affinity: two DP families in the corpus, and across the
     whole fleet each was built exactly once. *)
  let builds =
    Array.fold_left
      (fun acc socket ->
        let c = ok_exn "shard stats" (Cl.connect ~socket) in
        let kvs = ok_exn "stats" (Cl.stats c) in
        Cl.close c;
        acc
        + Option.value ~default:0 (List.assoc_opt "serve/table_builds" kvs))
      0 (Sh.shard_sockets fleet)
  in
  Alcotest.(check int) "each family built exactly once fleet-wide" 2 builds;
  (* The router's aggregated stats cover the same counters. *)
  let agg =
    let kvs = ok_exn "agg stats" (Cl.stats client) in
    Option.value ~default:0 (List.assoc_opt "serve/table_builds" kvs)
  in
  Alcotest.(check int) "aggregated stats sum the fleet" 2 agg;
  Cl.close client;
  Sh.shutdown fleet;
  Thread.join serve_thread

(* OCaml 5 refuses [Unix.fork] once a domain has been created, which is
   exactly the state a process is in after a parallel sweep.  Shards are
   spawned with [Unix.create_process], so a fleet started after a
   domain has come and gone must still serve byte-identical answers. *)
let test_fleet_after_domain () =
  Domain.join (Domain.spawn (fun () -> ()));
  let dir = temp_path "fleet-domain" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let fleet =
    ok_exn "fleet"
      (Sh.start ~workers:1 ~exe:(ia_rank_exe ()) ~shards:2 ~dir ())
  in
  Fun.protect ~finally:(fun () -> Sh.stop fleet) @@ fun () ->
  let q =
    Pr.query ~bunch_size:500 ~repeater_fraction:0.3 ~node:"130nm"
      ~gates:20_000 ()
  in
  let fp = ok_exn "fp" (Pr.fingerprint_of_query q) in
  let line = Pr.encode_request { Pr.id = "d"; op = Pr.Query q } in
  match Pr.decode_response (Sh.handle_line fleet line) with
  | Ok { Pr.body = Pr.Result { payload; _ }; _ } ->
      Alcotest.(check string) "fleet answer = cold"
        (Pr.result_payload (F.compute_cold fp))
        payload
  | Ok _ -> Alcotest.fail "non-result response"
  | Error e -> Alcotest.failf "response: %s" e

(* Crash recovery: SIGKILL the shard that owns a family mid-session and
   the router must reap it, respawn a replacement onto the same socket
   (counted in serve_shard/restarts), and answer the re-ask
   byte-identically to a cold compute. *)
let test_shard_supervisor_restart () =
  Ir_obs.reset ();
  let dir = temp_path "fleet-restart" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let fleet =
    ok_exn "fleet"
      (Sh.start ~workers:1 ~exe:(ia_rank_exe ()) ~shards:2 ~dir ())
  in
  Fun.protect ~finally:(fun () -> Sh.stop fleet) @@ fun () ->
  let q =
    Pr.query ~bunch_size:500 ~repeater_fraction:0.3 ~node:"130nm"
      ~gates:20_000 ()
  in
  let fp = ok_exn "fp" (Pr.fingerprint_of_query q) in
  let cold = Pr.result_payload (F.compute_cold fp) in
  let ask what =
    let line = Pr.encode_request { Pr.id = what; op = Pr.Query q } in
    match Pr.decode_response (Sh.handle_line fleet line) with
    | Ok { Pr.body = Pr.Result { payload; _ }; _ } -> Ok payload
    | Ok { Pr.body = Pr.Error e; _ } -> Error (Pr.error_message e)
    | Ok _ -> Error "non-result response"
    | Error e -> Error e
  in
  (match ask "before" with
  | Ok payload -> Alcotest.(check string) "warm ask = cold" cold payload
  | Error e -> Alcotest.failf "before kill: %s" e);
  let victim = Sh.route_key fleet (F.family_key fp) in
  let pids = Sh.shard_pids fleet in
  Unix.kill pids.(victim) Sys.sigkill;
  (* SIGKILL death is quick but not instantaneous — the supervisor's
     waitpid WNOHANG is only proof of death once the process has
     actually exited, so give the retry a few rounds. *)
  let rec ask_until n =
    match ask "after" with
    | Ok payload -> payload
    | Error e when n = 0 -> Alcotest.failf "after kill: %s" e
    | Error _ ->
        Thread.delay 0.1;
        ask_until (n - 1)
  in
  Alcotest.(check string) "post-kill ask = cold" cold (ask_until 50);
  Alcotest.(check bool) "supervisor counted the restart" true
    (counter "serve_shard/restarts" >= 1);
  let pids' = Sh.shard_pids fleet in
  Alcotest.(check bool) "replacement has a fresh pid" true
    (pids'.(victim) <> pids.(victim))

(* A zipf-skewed storm against a 2-shard fleet: 32 client threads x 6
   requests over a 14-query corpus ({130nm, 90nm} x 50k gates x 6
   fractions, plus one greedy query per node).  No request may fail,
   every query re-asked after the storm must equal a local cold compute
   byte for byte, the fleet must build each table family at most once
   (family-affinity routing), and at most half the storm may be shed. *)
let test_sharded_storm () =
  let clients = 32 and per_client = 6 in
  let corpus =
    List.concat_map
      (fun node ->
        List.map
          (fun f -> Pr.query ~repeater_fraction:f ~node ~gates:50_000 ())
          [ 0.25; 0.3; 0.35; 0.4; 0.45; 0.5 ]
        @ [ Pr.query ~repeater_fraction:0.4 ~greedy:true ~node ~gates:50_000 () ])
      [ "130nm"; "90nm" ]
  in
  let fingerprints =
    List.map (fun q -> ok_exn "fp" (Pr.fingerprint_of_query q)) corpus
  in
  let families =
    List.sort_uniq compare
      (List.filter_map
         (fun (fp : F.t) ->
           match fp.algo with F.Dp -> Some (F.table_key fp) | F.Greedy -> None)
         fingerprints)
  in
  let dir = temp_path "storm" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let fleet =
    ok_exn "fleet"
      (Sh.start ~workers:2 ~queue_capacity:128
         ~cache_dir:(Filename.concat dir "cache")
         ~snapshot_dir:(Filename.concat dir "snap")
         ~exe:(ia_rank_exe ()) ~shards:2 ~dir ())
  in
  let port_set = Atomic.make 0 in
  let serve_thread =
    Thread.create
      (fun () ->
        ok_exn "shard serve"
          (Sh.serve fleet
             ~tcp:("127.0.0.1", 0)
             ~on_tcp_listen:(fun p -> Atomic.set port_set p)
             ()))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Sh.shutdown fleet;
      Thread.join serve_thread)
  @@ fun () ->
  wait_for "the router to listen" (fun () -> Atomic.get port_set <> 0);
  let port = Atomic.get port_set in
  (* Zipf(1.1) over the corpus, sampled through a per-client LCG: a few
     hot families take most of the traffic, the tail still touches every
     query. *)
  let queries = Array.of_list corpus in
  let n = Array.length queries in
  let zipf_cum =
    let c = Array.make n 0.0 and total = ref 0.0 in
    for i = 0 to n - 1 do
      total := !total +. (1.0 /. Float.pow (float_of_int (i + 1)) 1.1);
      c.(i) <- !total
    done;
    Array.map (fun x -> x /. !total) c
  in
  let pick u =
    let rec bisect lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if zipf_cum.(mid) < u then bisect (mid + 1) hi else bisect lo mid
    in
    queries.(bisect 0 (n - 1))
  in
  let mu = Mutex.create () in
  let sheds = ref 0 and failures = ref [] in
  let record f =
    Mutex.lock mu;
    f ();
    Mutex.unlock mu
  in
  let client ci () =
    let seed = ref ((ci + 1) * 2654435761) in
    let next_u () =
      seed := ((!seed * 25214903917) + 11) land max_int;
      float_of_int (!seed land 0xFFFFFF) /. float_of_int 0x1000000
    in
    match Cl.connect_tcp ~host:"127.0.0.1" ~port with
    | Error e -> record (fun () -> failures := ("connect: " ^ e) :: !failures)
    | Ok c ->
        Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
        for _ = 1 to per_client do
          match Cl.request c (Pr.Query (pick (next_u ()))) with
          | Ok (Pr.Result _) -> ()
          | Ok (Pr.Error Pr.Overloaded) -> record (fun () -> incr sheds)
          | Ok (Pr.Error e) ->
              record (fun () -> failures := Pr.error_message e :: !failures)
          | Ok _ -> record (fun () -> failures := "unexpected body" :: !failures)
          | Error e -> record (fun () -> failures := e :: !failures)
        done
  in
  List.iter Thread.join (List.init clients (fun ci -> Thread.create (client ci) ()));
  Alcotest.(check (list string)) "no storm failures" [] !failures;
  let c = ok_exn "verify connect" (Cl.connect_tcp ~host:"127.0.0.1" ~port) in
  Fun.protect ~finally:(fun () -> Cl.close c) (fun () ->
      List.iteri
        (fun i q ->
          match Cl.request c (Pr.Query q) with
          | Ok (Pr.Result { payload; _ }) ->
              Alcotest.(check string)
                (Printf.sprintf "corpus %d: after the storm = cold" i)
                (Pr.result_payload (F.compute_cold (List.nth fingerprints i)))
                payload
          | Ok _ -> Alcotest.failf "corpus %d: non-result response" i
          | Error e -> Alcotest.failf "corpus %d: %s" i e)
        corpus);
  let builds =
    Array.fold_left
      (fun acc socket ->
        let c = ok_exn "shard stats" (Cl.connect ~socket) in
        let kvs = ok_exn "stats" (Cl.stats c) in
        Cl.close c;
        acc
        + Option.value ~default:0 (List.assoc_opt "serve/table_builds" kvs))
      0 (Sh.shard_sockets fleet)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d table builds fleet-wide for %d families" builds
       (List.length families))
    true
    (builds <= List.length families);
  let shed_rate =
    float_of_int !sheds /. float_of_int (clients * per_client)
  in
  Alcotest.(check bool)
    (Printf.sprintf "shed rate %.3f <= 0.5" shed_rate)
    true (shed_rate <= 0.5)

(* ---- bench gates ------------------------------------------------------ *)

(* A fixed trace ({130nm, 50k gates} x fractions 0.3/0.4/0.5, each asked
   three times) replayed against a fresh in-process server at jobs=1
   and at jobs=N: every reply is a result, and every serve* counter and
   gauge is the same.  Runs last in this file: its jobs=N replay spawns
   domains, after which OCaml 5 refuses [Unix.fork]. *)
let test_gate_serving_replay () =
  let distinct = [ 0.3; 0.4; 0.5 ] in
  let trace = distinct @ distinct @ distinct in
  let replay jobs =
    Ir_obs.reset ();
    Ir_exec.with_default_jobs (Some jobs) @@ fun () ->
    let cache = ok_exn "cache" (C.create ~capacity:64 ()) in
    let server = S.create ~workers:2 ~cache () in
    Fun.protect
      ~finally:(fun () ->
        S.shutdown server;
        S.join server)
      (fun () ->
        List.iteri
          (fun i f ->
            let q =
              Pr.query ~repeater_fraction:f ~node:"130nm" ~gates:50_000 ()
            in
            let req = { Pr.id = Printf.sprintf "t%d" i; op = Pr.Query q } in
            match (S.handle server req).Pr.body with
            | Pr.Result _ -> ()
            | Pr.Error e ->
                Alcotest.failf "request %d: %s" i (Pr.error_message e)
            | _ -> Alcotest.failf "request %d: unexpected response body" i)
          trace);
    Ir_obs.filter ~prefix:"serve" (Ir_obs.snapshot ())
  in
  let jobs = max 4 (Ir_exec.default_jobs ()) in
  let seq = replay 1 in
  let par =
    Ir_exec.set_allow_oversubscribe true;
    Fun.protect
      ~finally:(fun () -> Ir_exec.set_allow_oversubscribe false)
      (fun () -> replay jobs)
  in
  Alcotest.(check (list (pair string int))) "serve counters" seq.counters
    par.counters;
  Alcotest.(check (list (pair string int))) "serve gauges" seq.gauges
    par.gauges

let () =
  Alcotest.run "serve"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "deterministic" `Quick test_fp_deterministic;
          Alcotest.test_case "node spellings" `Quick test_fp_node_spellings;
          Alcotest.test_case "defaults explicit" `Quick
            test_fp_defaults_explicit;
          Alcotest.test_case "parameter sensitivity" `Quick
            test_fp_param_sensitivity;
          Alcotest.test_case "inline wld canonical" `Quick
            test_fp_inline_wld_canonical;
          Alcotest.test_case "table key masks" `Quick test_fp_table_key_masks;
          Alcotest.test_case "family key masks" `Quick
            test_fp_family_key_masks;
          Alcotest.test_case "validation" `Quick test_fp_validation;
          Alcotest.test_case "oversized instances rejected" `Quick
            test_oversized_rejected;
          Alcotest.test_case "power fields" `Quick test_fp_power_fields;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "hardening" `Quick test_json_hardening;
        ] );
      ( "protocol",
        [
          prop_request_roundtrip;
          prop_response_roundtrip;
          Alcotest.test_case "power compatibility" `Quick
            test_protocol_power_compat;
          Alcotest.test_case "errors" `Quick test_protocol_errors;
          prop_decode_request_fuzz;
          Alcotest.test_case "epsilon retired" `Quick
            test_protocol_epsilon_retired;
        ] );
      ( "cache",
        [
          prop_lru_model;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "disk persistence" `Quick test_disk_persistence;
          Alcotest.test_case "disk corruption rejected" `Quick
            test_disk_corruption_rejected;
          Alcotest.test_case "disk digest mismatch" `Quick
            test_disk_digest_mismatch;
          Alcotest.test_case "disk old schema discarded" `Quick
            test_disk_old_schema;
        ] );
      ( "server",
        [
          Alcotest.test_case "differential cached = cold" `Quick
            test_differential_cached_equals_cold;
          Alcotest.test_case "e2e coalescing + restart" `Quick
            test_e2e_coalescing_and_restart;
          Alcotest.test_case "shed and drain" `Quick test_e2e_shed;
          Alcotest.test_case "timeout" `Quick test_e2e_timeout;
          Alcotest.test_case "join after shutdown" `Quick
            test_join_after_shutdown;
        ] );
      ( "hostile clients",
        [
          Alcotest.test_case "disconnect mid-response" `Quick
            test_e2e_disconnect_mid_response;
          Alcotest.test_case "fd churn storm" `Quick test_e2e_fd_churn_storm;
          Alcotest.test_case "overlong line" `Quick test_e2e_overlong_line;
          Alcotest.test_case "stdio overlong line" `Quick
            test_stdio_overlong_line;
        ] );
      ( "cache hardening",
        [
          Alcotest.test_case "write failure keeps serving" `Quick
            test_cache_write_failure_keeps_serving;
          Alcotest.test_case "tmp sweep" `Quick test_cache_tmp_sweep;
          Alcotest.test_case "multi-process hammer" `Quick
            test_cache_multiprocess_hammer;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "warm restart" `Quick test_snapshot_warm_restart;
          Alcotest.test_case "corrupt fallback" `Quick
            test_snapshot_corrupt_fallback;
          Alcotest.test_case "hostile payloads" `Quick
            test_snapshot_hostile_payloads;
          Alcotest.test_case "old schema discarded" `Quick
            test_snapshot_old_schema;
          Alcotest.test_case "decode error counted and rebuilt" `Quick
            test_snapshot_decode_error;
        ] );
      ( "resident grid",
        [
          Alcotest.test_case "neighbor queries answered warm" `Quick
            test_grid_neighbor_warm;
          Alcotest.test_case "powered queries answered warm" `Quick
            test_grid_powered_warm;
          Alcotest.test_case "truncated plane served = cold" `Quick
            test_grid_truncated_plane_served;
          Alcotest.test_case "family pool evicts least recently used" `Quick
            test_pool_eviction;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "tcp byte identity" `Quick
            test_sharded_tcp_byte_identity;
          Alcotest.test_case "supervisor restart" `Quick
            test_shard_supervisor_restart;
          Alcotest.test_case "fleet after domain spawn" `Quick
            test_fleet_after_domain;
          Alcotest.test_case "zipf storm" `Quick test_sharded_storm;
        ] );
      ( "bench gates",
        [
          Alcotest.test_case "replay counters jobs=1 = jobs=N" `Quick
            test_gate_serving_replay;
        ] );
    ]
