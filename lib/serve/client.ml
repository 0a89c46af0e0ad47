type t = {
  fd : Unix.file_descr;
  reader : Tcp.line_reader;
  mutable next_id : int;
}

(* A server that hangs up mid-request must surface as [Error], not as a
   SIGPIPE that kills the client. *)
let of_fd =
  Result.map (fun fd ->
      Tcp.ignore_sigpipe ();
      { fd; reader = Tcp.line_reader fd; next_id = 0 })

let connect ~socket = of_fd (Tcp.connect_unix ~socket)
let connect_tcp ~host ~port = of_fd (Tcp.connect_tcp ~host ~port)
let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let request t op =
  t.next_id <- t.next_id + 1;
  let id = Printf.sprintf "c%d" t.next_id in
  if not (Tcp.write_line t.fd (Protocol.encode_request { Protocol.id; op }))
  then Error "send failed: server closed the connection"
  else
    match Tcp.read_line t.reader with
    | `Eof -> Error "server closed the connection"
    | `Overlong ->
        Error
          (Printf.sprintf "response line exceeds %d bytes"
             Tcp.default_max_line)
    | `Line line -> (
        match Protocol.decode_response line with
        | Error e -> Error e
        | Ok resp when resp.Protocol.id <> id ->
            Error
              (Printf.sprintf "response id %S does not match request id %S"
                 resp.Protocol.id id)
        | Ok resp -> Ok resp.Protocol.body)

let ping t =
  match request t Protocol.Ping with
  | Ok Protocol.Pong -> Ok ()
  | Ok (Protocol.Error e) -> Error (Protocol.error_message e)
  | Ok _ -> Error "unexpected response to ping"
  | Error e -> Error e

let stats t =
  match request t Protocol.Stats with
  | Ok (Protocol.Stats_reply kvs) -> Ok kvs
  | Ok (Protocol.Error e) -> Error (Protocol.error_message e)
  | Ok _ -> Error "unexpected response to stats"
  | Error e -> Error e

let outcome_of_payload payload =
  let ( let* ) = Result.bind in
  let* j = Json.of_string payload in
  let int k = Option.bind (Json.member k j) Json.to_int in
  let bool k = Option.bind (Json.member k j) Json.to_bool in
  match (int "rank_wires", int "total_wires", bool "assignable",
         int "boundary_bunch", bool "exact")
  with
  | Some rank_wires, Some total_wires, Some assignable, Some boundary_bunch,
    Some exact -> (
      match
        Ir_core.Outcome.v ~exact ~rank_wires ~total_wires ~assignable
          ~boundary_bunch ()
      with
      | o -> Ok o
      | exception Invalid_argument m -> Error ("inconsistent outcome: " ^ m))
  | _ -> Error "result payload is missing outcome fields"

let query t q =
  match request t (Protocol.Query q) with
  | Ok (Protocol.Result { source; payload }) -> (
      match outcome_of_payload payload with
      | Ok outcome -> Ok (outcome, source, payload)
      | Error e -> Error e)
  | Ok (Protocol.Error e) ->
      Error
        (Printf.sprintf "%s: %s"
           (match e with
           | Protocol.Bad_request _ -> "bad request"
           | Protocol.Overloaded -> "overloaded"
           | Protocol.Timeout -> "timeout"
           | Protocol.Shutting_down -> "shutting down"
           | Protocol.Internal _ -> "internal error")
           (Protocol.error_message e))
  | Ok _ -> Error "unexpected response to query"
  | Error e -> Error e
