(** Versioned line-delimited JSON protocol of the rank query service.

    One request per line, one response per line, correlated by a
    client-chosen [id].  Every message carries the protocol version
    ([v = 1]); a server receiving any other version answers
    [Bad_request] rather than guessing.

    {b Canonical result payloads.}  A successful query response embeds
    the outcome as the {e verbatim} bytes of {!result_payload} — a
    canonical JSON object (fixed field order, [%.17g] floats).  Those
    bytes are what the cache stores and what the coalescing layer fans
    out, so a cold compute, a memory hit, a disk hit and a coalesced
    wait all deliver byte-identical payloads for equal queries.  Where
    the answer came from travels in the envelope ([source]), outside the
    cached bytes.

    {b Error variants} are explicit and closed: [Bad_request] (the
    request itself is at fault — do not retry), [Overloaded] (queue
    full, shed — retry later), [Timeout] (the per-request deadline
    passed), [Shutting_down] (server draining — retry against a new
    server), [Internal] (a bug; the message is for humans).  [retryable]
    encodes which of these a well-behaved client may retry verbatim. *)

val version : int

type query = {
  node : string;  (** raw; canonicalized by {!Fingerprint.v} *)
  gates : int;
  rent_p : float option;
  fan_out : float option;
  clock : float option;
  repeater_fraction : float option;
  k : float option;
  miller : float option;
  bunch_size : int option;
  structure : (int * int * int) option;
      (** (local, semi-global, global) pair counts *)
  greedy : bool;  (** [true] selects {!Fingerprint.Greedy} *)
  power_budget : float option;
      (** repeater power budget in watts; omitted = unconstrained.
          Optional within protocol version 1: old clients never send the
          key, old servers never receive it *)
  activity : float option;
      (** switching activity factor of the power model; meaningful only
          alongside [power_budget] — see {!Fingerprint.t} *)
  wld_csv : string option;
      (** inline WLD as CSV text; parsed strictly ({!Ir_wld.Io.of_string}
          with [strict = true]) because it crosses a trust boundary *)
}
(** The wire form of a query: optional fields default on the server
    (inside {!Fingerprint.v}), so a client that omits [rent_p] and one
    that sends the default value fingerprint identically. *)

val query :
  ?rent_p:float ->
  ?fan_out:float ->
  ?clock:float ->
  ?repeater_fraction:float ->
  ?k:float ->
  ?miller:float ->
  ?bunch_size:int ->
  ?structure:int * int * int ->
  ?greedy:bool ->
  ?power_budget:float ->
  ?activity:float ->
  ?wld_csv:string ->
  node:string ->
  gates:int ->
  unit ->
  query

type op = Ping | Stats | Query of query

type request = { id : string; op : op }

type error =
  | Bad_request of string
  | Overloaded
  | Timeout
  | Shutting_down
  | Internal of string

val retryable : error -> bool
(** [true] for [Overloaded] and [Shutting_down]. *)

val error_message : error -> string

type body =
  | Pong
  | Stats_reply of (string * int) list  (** counter name, value; sorted *)
  | Result of { source : string; payload : string }
      (** [payload] is verbatim {!result_payload} bytes; [source] is
          ["cold"], ["memory"], ["disk"] or ["coalesced"] *)
  | Error of error

type response = { id : string; body : body }

val fingerprint_of_query : query -> (Fingerprint.t, string) result
(** Resolves the wire form into a validated fingerprint, parsing any
    inline WLD strictly.  The [Error] string is the [Bad_request]
    message.  An instance that may make more than
    {!Fingerprint.max_bunches} (65,536) bunches is refused here with a
    message starting "instance too large", so an untrusted line cannot
    start a Davis generation over billions of lengths ([gates] near
    [max_int]) or counts beyond [int] range ([fan_out = 1e30]); see
    {!Fingerprint.v} for the bound. *)

val result_payload : Ir_core.Outcome.t -> string
(** Canonical result bytes:
    [{"rank_wires":..,"total_wires":..,"assignable":..,"boundary_bunch":..,
    "exact":..,"normalized":..}]. *)

val encode_request : request -> string
(** One line, no trailing newline. *)

val decode_request : string -> (request, error) result
(** Parse failures and version mismatches come back as [Bad_request]
    with a descriptive message — never an exception.  A query's
    [epsilon] key is a retired field (ε-dominance compression no longer
    exists): absent or [0] is accepted and changes nothing, any other
    value is a [Bad_request] naming it. *)

val encode_response : response -> string

val decode_response : string -> (response, string) result
(** Client side; a malformed response is a hard error (the server is
    trusted once reached, but a human-readable message beats a crash). *)
