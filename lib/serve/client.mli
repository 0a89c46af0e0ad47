(** Blocking client for the rank query service ([ia_rank query]).

    One connection, synchronous request/response (the protocol is
    line-delimited and the server answers in arrival order per
    connection), read and written through {!Tcp}'s bounded line I/O.
    Ids are generated locally and checked on receipt, so a
    desynchronized stream surfaces as an error instead of a mismatched
    answer.  Connecting ignores SIGPIPE ({!Tcp.ignore_sigpipe}), so a
    server that hangs up is an [Error], not a dead client. *)

type t

val connect : socket:string -> (t, string) result

val connect_tcp : host:string -> port:int -> (t, string) result
(** Same client over the TCP listener ([ia_rank serve --tcp]). *)

val close : t -> unit

val request : t -> Protocol.op -> (Protocol.body, string) result
(** Sends one operation and waits for its response.  [Error] covers
    transport and framing failures only; protocol-level errors come back
    as [Protocol.Error _] inside [Ok]. *)

val ping : t -> (unit, string) result

val stats : t -> ((string * int) list, string) result

val query :
  t ->
  Protocol.query ->
  (Ir_core.Outcome.t * string * string, string) result
(** [(outcome, source, payload)] on success — the outcome decoded from
    the canonical payload bytes (also returned verbatim for [--json]
    output and differential tests).  Protocol errors are rendered as
    [Error] with the server's message, prefixed by the error code. *)
