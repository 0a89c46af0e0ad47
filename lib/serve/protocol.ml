let version = 1

type query = {
  node : string;
  gates : int;
  rent_p : float option;
  fan_out : float option;
  clock : float option;
  repeater_fraction : float option;
  k : float option;
  miller : float option;
  bunch_size : int option;
  structure : (int * int * int) option;
  greedy : bool;
  power_budget : float option;
  activity : float option;
  wld_csv : string option;
}

let query ?rent_p ?fan_out ?clock ?repeater_fraction ?k ?miller ?bunch_size
    ?structure ?(greedy = false) ?power_budget ?activity ?wld_csv
    ~node ~gates () =
  {
    node;
    gates;
    rent_p;
    fan_out;
    clock;
    repeater_fraction;
    k;
    miller;
    bunch_size;
    structure;
    greedy;
    power_budget;
    activity;
    wld_csv;
  }

type op = Ping | Stats | Query of query
type request = { id : string; op : op }

type error =
  | Bad_request of string
  | Overloaded
  | Timeout
  | Shutting_down
  | Internal of string

let retryable = function
  | Overloaded | Shutting_down -> true
  | Bad_request _ | Timeout | Internal _ -> false

let error_code = function
  | Bad_request _ -> "bad_request"
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Shutting_down -> "shutting_down"
  | Internal _ -> "internal"

let error_message = function
  | Bad_request m -> m
  | Overloaded -> "queue full, retry later"
  | Timeout -> "request deadline exceeded"
  | Shutting_down -> "server draining, retry elsewhere"
  | Internal m -> m

type body =
  | Pong
  | Stats_reply of (string * int) list
  | Result of { source : string; payload : string }
  | Error of error

type response = { id : string; body : body }

let fingerprint_of_query q =
  let ( let* ) = Result.bind in
  let* wld =
    match q.wld_csv with
    | None -> Ok None
    | Some csv -> (
        match Ir_wld.Io.of_string ~name:"wld" ~strict:true csv with
        | Ok d -> Ok (Some d)
        | Error e -> Error e)
  in
  let structure =
    Option.map
      (fun (l, s, g) ->
        {
          Ir_ia.Arch.local_pairs = l;
          semi_global_pairs = s;
          global_pairs = g;
        })
      q.structure
  in
  Fingerprint.v ?rent_p:q.rent_p ?fan_out:q.fan_out ?clock:q.clock
    ?repeater_fraction:q.repeater_fraction ?k:q.k ?miller:q.miller
    ?bunch_size:q.bunch_size ?structure ?power_budget:q.power_budget ?activity:q.activity ?wld
    ~algo:(if q.greedy then Fingerprint.Greedy else Fingerprint.Dp)
    ~node:q.node ~gates:q.gates ()

(* Fixed field order: these bytes are the cache payload and must be
   deterministic across call sites. *)
let result_payload (o : Ir_core.Outcome.t) =
  Json.to_string
    (Obj
       [
         ("rank_wires", Json.Int o.rank_wires);
         ("total_wires", Json.Int o.total_wires);
         ("assignable", Json.Bool o.assignable);
         ("boundary_bunch", Json.Int o.boundary_bunch);
         ("exact", Json.Bool o.exact);
         ("normalized", Json.Float (Ir_core.Outcome.normalized o));
       ])

(* ---- encoding --------------------------------------------------------- *)

let opt name conv = function None -> [] | Some x -> [ (name, conv x) ]

let json_of_query q =
  Json.Obj
    ([ ("node", Json.Str q.node); ("gates", Json.Int q.gates) ]
    @ opt "rent_p" (fun f -> Json.Float f) q.rent_p
    @ opt "fan_out" (fun f -> Json.Float f) q.fan_out
    @ opt "clock" (fun f -> Json.Float f) q.clock
    @ opt "repeater_fraction" (fun f -> Json.Float f) q.repeater_fraction
    @ opt "k" (fun f -> Json.Float f) q.k
    @ opt "miller" (fun f -> Json.Float f) q.miller
    @ opt "bunch_size" (fun n -> Json.Int n) q.bunch_size
    @ opt "structure"
        (fun (l, s, g) -> Json.Arr [ Json.Int l; Json.Int s; Json.Int g ])
        q.structure
    @ (if q.greedy then [ ("greedy", Json.Bool true) ] else [])
    @ opt "power_budget" (fun f -> Json.Float f) q.power_budget
    @ opt "activity" (fun f -> Json.Float f) q.activity
    @ opt "wld_csv" (fun s -> Json.Str s) q.wld_csv)

let encode_request { id; op } =
  let op_name, extra =
    match op with
    | Ping -> ("ping", [])
    | Stats -> ("stats", [])
    | Query q -> ("query", [ ("query", json_of_query q) ])
  in
  Json.to_string
    (Obj
       ([
          ("v", Json.Int version);
          ("id", Json.Str id);
          ("op", Json.Str op_name);
        ]
       @ extra))

let encode_response { id; body } =
  let fields =
    match body with
    | Pong -> [ ("status", Json.Str "pong") ]
    | Stats_reply counters ->
        [
          ("status", Json.Str "stats");
          ( "counters",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters) );
        ]
    | Result { source; payload } -> (
        (* The payload bytes are canonical JSON we produced; re-embedding
           the parsed value keeps the envelope a single well-formed
           object while [decode_response] re-canonicalizes to the same
           bytes (fixed field order both ways). *)
        match Json.of_string payload with
        | Ok j ->
            [
              ("status", Json.Str "ok");
              ("source", Json.Str source);
              ("result", j);
            ]
        | Error e -> invalid_arg ("Protocol.encode_response: bad payload: " ^ e)
        )
    | Error err ->
        [
          ("status", Json.Str "error");
          ("error", Json.Str (error_code err));
          ("message", Json.Str (error_message err));
          ("retryable", Json.Bool (retryable err));
        ]
  in
  Json.to_string
    (Obj ([ ("v", Json.Int version); ("id", Json.Str id) ] @ fields))

(* ---- decoding --------------------------------------------------------- *)

let field name j = Json.member name j

let require what = function
  | Some x -> Ok x
  | None -> Result.error (Printf.sprintf "missing or ill-typed %s" what)

let get_str name j = require (name ^ " (string)") (Option.bind (field name j) Json.to_str)
let get_int name j = require (name ^ " (int)") (Option.bind (field name j) Json.to_int)

let opt_field name conv what j =
  match field name j with
  | None -> Ok None
  | Some v -> (
      match conv v with
      | Some x -> Ok (Some x)
      | None ->
          Result.error (Printf.sprintf "field %s must be %s" name what))

let query_of_json j =
  let ( let* ) = Result.bind in
  let* node = get_str "node" j in
  let* gates = get_int "gates" j in
  let* rent_p = opt_field "rent_p" Json.to_float "a number" j in
  let* fan_out = opt_field "fan_out" Json.to_float "a number" j in
  let* clock = opt_field "clock" Json.to_float "a number" j in
  let* repeater_fraction =
    opt_field "repeater_fraction" Json.to_float "a number" j
  in
  let* k = opt_field "k" Json.to_float "a number" j in
  let* miller = opt_field "miller" Json.to_float "a number" j in
  let* bunch_size = opt_field "bunch_size" Json.to_int "an int" j in
  let* structure =
    opt_field "structure"
      (fun v ->
        match Json.to_list v with
        | Some [ a; b; c ] -> (
            match (Json.to_int a, Json.to_int b, Json.to_int c) with
            | Some l, Some s, Some g -> Some (l, s, g)
            | _ -> None)
        | _ -> None)
      "an [l,s,g] int triple" j
  in
  let* greedy =
    let* b = opt_field "greedy" Json.to_bool "a bool" j in
    Ok (Option.value b ~default:false)
  in
  (* [epsilon] (ε-dominance compression) is retired: a client that still
     sends the exact-mode value 0 gets the answer it always got, under
     the same digest; any other value asked for an approximation this
     server no longer computes. *)
  let* epsilon = opt_field "epsilon" Json.to_float "a number" j in
  let* () =
    match epsilon with
    | None -> Ok ()
    | Some e when e = 0.0 -> Ok ()
    | Some _ ->
        Result.error
          "field epsilon is retired: only 0 (exact) is accepted"
  in
  (* Optional fields within protocol version 1: servers predating them
     never see the keys (clients omit them at their defaults), and old
     clients simply never send them. *)
  let* power_budget = opt_field "power_budget" Json.to_float "a number" j in
  let* activity = opt_field "activity" Json.to_float "a number" j in
  let* wld_csv = opt_field "wld_csv" Json.to_str "a string" j in
  Ok
    {
      node;
      gates;
      rent_p;
      fan_out;
      clock;
      repeater_fraction;
      k;
      miller;
      bunch_size;
      structure;
      greedy;
      power_budget;
      activity;
      wld_csv;
    }

let check_version j =
  match Option.bind (field "v" j) Json.to_int with
  | Some v when v = version -> Ok ()
  | Some v ->
      Result.error
        (Printf.sprintf "protocol version %d not supported (this is %d)" v
           version)
  | None -> Result.error "missing protocol version field v"

let decode_request line =
  let bad m = Stdlib.Error (Bad_request m) in
  match Json.of_string line with
  | Error e -> bad ("request is not valid JSON: " ^ e)
  | Ok j -> (
      match
        let ( let* ) = Result.bind in
        let* () = check_version j in
        let* id = get_str "id" j in
        let* op_name = get_str "op" j in
        let* op =
          match op_name with
          | "ping" -> Ok Ping
          | "stats" -> Ok Stats
          | "query" ->
              let* qj = require "query object" (field "query" j) in
              let* q = query_of_json qj in
              Ok (Query q)
          | other -> Result.error (Printf.sprintf "unknown op %S" other)
        in
        Ok { id; op }
      with
      | Ok r -> Ok r
      | Stdlib.Error m -> bad m)

let error_of_code ~code ~message =
  match code with
  | "bad_request" -> Bad_request message
  | "overloaded" -> Overloaded
  | "timeout" -> Timeout
  | "shutting_down" -> Shutting_down
  | _ -> Internal message

let decode_response line =
  let ( let* ) = Result.bind in
  let* j = Json.of_string line in
  let* () = check_version j in
  let* id = get_str "id" j in
  let* status = get_str "status" j in
  let* body =
    match status with
    | "pong" -> Ok Pong
    | "stats" -> (
        match field "counters" j with
        | Some (Json.Obj kvs) ->
            let* counters =
              List.fold_left
                (fun acc (k, v) ->
                  let* acc = acc in
                  match Json.to_int v with
                  | Some n -> Ok ((k, n) :: acc)
                  | None -> Result.error ("non-integer counter " ^ k))
                (Ok []) kvs
            in
            Ok (Stats_reply (List.rev counters))
        | _ -> Result.error "stats response lacks a counters object")
    | "ok" ->
        let* source = get_str "source" j in
        let* result = require "result object" (field "result" j) in
        Ok (Result { source; payload = Json.to_string result })
    | "error" ->
        let* code = get_str "error" j in
        let* message = get_str "message" j in
        Ok (Error (error_of_code ~code ~message))
    | other -> Result.error (Printf.sprintf "unknown status %S" other)
  in
  Ok { id; body }
