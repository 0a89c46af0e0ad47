let stat_connections = Ir_obs.counter "serve_net/connections"
let stat_overlong = Ir_obs.counter "serve_net/overlong_lines"
let stat_write_failures = Ir_obs.counter "serve_net/write_failures"
let stat_read_failures = Ir_obs.counter "serve_net/read_failures"

(* A client that disconnects between request and response must cost us a
   failed write, never the process: the default SIGPIPE action is
   termination, and a serve tier dies of its first impatient client.
   Idempotent; called by every serve entry point (the write paths below
   still handle the resulting EPIPE). *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

(* ---- bounded line I/O ------------------------------------------------- *)

(* 8 MiB comfortably holds the largest legitimate request (an inline WLD
   upload of hundreds of thousands of bins) while bounding what a
   hostile client can make us buffer for one line.  A channel's
   [input_line] has no such bound, which is why every line of the serve
   tier, stdio and client included, is read through this reader. *)
let default_max_line = 8 * 1024 * 1024

type line_reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  buf : Buffer.t;  (* received, unconsumed bytes *)
  mutable scanned : int;  (* prefix of [buf] known to be '\n'-free *)
  mutable eof : bool;
}

let line_reader fd =
  { fd; chunk = Bytes.create 65536; buf = Buffer.create 512; scanned = 0;
    eof = false }

let rec read_line ?(max_bytes = default_max_line) r =
  let len = Buffer.length r.buf in
  let rec find i =
    if i >= len then None
    else if Buffer.nth r.buf i = '\n' then Some i
    else find (i + 1)
  in
  match find r.scanned with
  | Some i ->
      let line = Buffer.sub r.buf 0 i in
      let rest = Buffer.sub r.buf (i + 1) (len - i - 1) in
      Buffer.clear r.buf;
      Buffer.add_string r.buf rest;
      r.scanned <- 0;
      `Line line
  | None ->
      r.scanned <- len;
      if len > max_bytes then `Overlong
      else if r.eof then
        if len = 0 then `Eof
        else begin
          (* Trailing bytes without a final newline: serve them as the
             last line (the channel-based loop this replaces did). *)
          let line = Buffer.contents r.buf in
          Buffer.clear r.buf;
          r.scanned <- 0;
          `Line line
        end
      else begin
        (match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
        | 0 -> r.eof <- true
        | n -> Buffer.add_subbytes r.buf r.chunk 0 n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error _ ->
            Ir_obs.incr stat_read_failures;
            r.eof <- true);
        read_line ~max_bytes r
      end

let rec write_all fd buf off len =
  if len = 0 then true
  else
    match Unix.write fd buf off len with
    | n -> write_all fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd buf off len
    | exception Unix.Unix_error _ ->
        (* EPIPE/ECONNRESET: the client hung up mid-response.  Their
           loss, not our crash — the connection loop just ends. *)
        Ir_obs.incr stat_write_failures;
        false

let write_line fd line =
  let b = Bytes.create (String.length line + 1) in
  Bytes.blit_string line 0 b 0 (String.length line);
  Bytes.set b (String.length line) '\n';
  write_all fd b 0 (Bytes.length b)

(* ---- endpoints -------------------------------------------------------- *)

(* A stream socket for [sockaddr], set up by [use] (bind and listen, or
   connect); a Unix error closes it and becomes an [Error] naming the
   failed call and [what]. *)
let with_socket sockaddr ~what use =
  let fd =
    Unix.socket ~cloexec:true
      (Unix.domain_of_sockaddr sockaddr)
      Unix.SOCK_STREAM 0
  in
  match use fd with
  | v -> Ok v
  | exception Unix.Unix_error (e, fn, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "%s %s: %s" fn what (Unix.error_message e))

let listen_unix ~socket =
  let ( let* ) = Result.bind in
  let* () =
    match (Unix.lstat socket).Unix.st_kind with
    | Unix.S_SOCK -> (
        (* A previous server's leftover; safe to replace. *)
        match Unix.unlink socket with
        | () -> Ok ()
        | exception Unix.Unix_error (e, _, _) ->
            Error
              (Printf.sprintf "cannot remove stale socket %s: %s" socket
                 (Unix.error_message e)))
    | _ ->
        Error
          (Printf.sprintf
             "%s exists and is not a socket; refusing to replace it" socket)
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok ()
    | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "%s: %s" socket (Unix.error_message e))
  in
  with_socket (Unix.ADDR_UNIX socket) ~what:socket (fun fd ->
      Unix.bind fd (Unix.ADDR_UNIX socket);
      Unix.listen fd 64;
      fd)

let inet ~host ~port =
  match Unix.inet_addr_of_string host with
  | addr -> Ok (Unix.ADDR_INET (addr, port))
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
          Error (Printf.sprintf "cannot resolve host %S" host)
      | h -> Ok (Unix.ADDR_INET (h.Unix.h_addr_list.(0), port)))

let listen_tcp ~host ~port =
  Result.bind (inet ~host ~port) (fun sockaddr ->
      with_socket sockaddr ~what:(Printf.sprintf "%s:%d" host port) (fun fd ->
          Unix.setsockopt fd Unix.SO_REUSEADDR true;
          Unix.bind fd sockaddr;
          Unix.listen fd 128;
          ( fd,
            match Unix.getsockname fd with
            | Unix.ADDR_INET (_, p) -> p
            | _ -> port )))

let connect_tcp ~host ~port =
  Result.bind (inet ~host ~port) (fun sockaddr ->
      with_socket sockaddr ~what:(Printf.sprintf "%s:%d" host port) (fun fd ->
          Unix.connect fd sockaddr;
          fd))

let connect_unix ~socket =
  with_socket (Unix.ADDR_UNIX socket) ~what:socket (fun fd ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      fd)

(* Bind whichever listeners the caller configured.  Returns the listening
   fds plus a cleanup closing them (and unlinking the unix socket). *)
let bind_listeners ?tcp ?on_tcp_listen ?socket () =
  let ( let* ) = Result.bind in
  let* unix_fd =
    match socket with
    | None -> Ok None
    | Some s -> Result.map Option.some (listen_unix ~socket:s)
  in
  let close_unix () =
    match unix_fd with
    | None -> ()
    | Some fd ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Option.iter
          (fun s -> try Unix.unlink s with Unix.Unix_error _ -> ())
          socket
  in
  let* tcp_fd =
    match tcp with
    | None -> Ok None
    | Some (host, port) -> (
        match listen_tcp ~host ~port with
        | Ok (fd, bound) ->
            Option.iter (fun f -> f bound) on_tcp_listen;
            Ok (Some fd)
        | Error e ->
            close_unix ();
            Error e)
  in
  match List.filter_map Fun.id [ unix_fd; tcp_fd ] with
  | [] -> Error "no listener configured"
  | fds ->
      let cleanup () =
        close_unix ();
        match tcp_fd with
        | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
        | None -> ()
      in
      Ok (fds, cleanup)

(* ---- connection registry ---------------------------------------------- *)

(* Live connections are keyed by a monotonically increasing id, never by
   the file descriptor: a connection removes itself (and closes its fd)
   under the registry lock when it finishes, so the drain path below can
   only ever shut down descriptors that are still open — the historical
   [(thread, fd) list] both grew without bound and, at drain, called
   [shutdown] on fds the connection had already closed, which after
   kernel fd-number reuse could hit an unrelated live descriptor. *)
type registry = {
  mu : Mutex.t;
  tbl : (int, Thread.t * Unix.file_descr) Hashtbl.t;
  mutable next_id : int;
}

let registry () = { mu = Mutex.create (); tbl = Hashtbl.create 64; next_id = 0 }

let live_connections reg =
  Mutex.lock reg.mu;
  let n = Hashtbl.length reg.tbl in
  Mutex.unlock reg.mu;
  n

let overlong_response =
  lazy
    (Protocol.encode_response
       {
         Protocol.id = "";
         body =
           Protocol.Error
             (Protocol.Bad_request
                (Printf.sprintf "request line exceeds %d bytes"
                   default_max_line));
       })

(* One conversation: read lines from [input], apply [handler], write
   responses to [output].  Every failure mode — peer gone mid-read, peer
   gone mid-write, an oversized line — ends this conversation only. *)
let connection_loop ~handler input output =
  let r = line_reader input in
  let rec loop () =
    match read_line r with
    | `Eof -> ()
    | `Overlong ->
        Ir_obs.incr stat_overlong;
        (* Answer if the peer still listens, then hang up: resyncing a
           line protocol mid-flood is not worth the buffer. *)
        ignore (write_line output (Lazy.force overlong_response))
    | `Line line -> if write_line output (handler line) then loop ()
  in
  loop ()

let spawn_connection reg ~handler fd =
  Ir_obs.incr stat_connections;
  Mutex.lock reg.mu;
  let id = reg.next_id in
  reg.next_id <- id + 1;
  let th =
    Thread.create
      (fun () ->
        (match connection_loop ~handler fd fd with
        | () -> ()
        | exception _ -> ());
        Mutex.lock reg.mu;
        if Hashtbl.mem reg.tbl id then begin
          Hashtbl.remove reg.tbl id;
          try Unix.close fd with Unix.Unix_error _ -> ()
        end;
        Mutex.unlock reg.mu)
      ()
  in
  (* The cleanup above locks [mu], so it cannot race this registration
     even if the connection finishes instantly. *)
  Hashtbl.replace reg.tbl id (th, fd);
  Mutex.unlock reg.mu

let drain reg =
  (* Unblock reads of connections whose clients never hang up; their
     in-progress requests still answer.  Shutdown and close are mutually
     excluded by the registry lock, so no closed (possibly reused) fd is
     ever shut down. *)
  Mutex.lock reg.mu;
  let threads =
    Hashtbl.fold
      (fun _ (th, fd) acc ->
        (try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
         with Unix.Unix_error _ -> ());
        th :: acc)
      reg.tbl []
  in
  Mutex.unlock reg.mu;
  List.iter (fun th -> try Thread.join th with _ -> ()) threads

let serve_loop ~registry:reg ~stop ~draining ~handler fds =
  ignore_sigpipe ();
  let rec accept_loop () =
    if draining () then ()
    else
      (* Select on the stop pipe too, so a shutdown initiated from a
         signal handler interrupts a blocked accept immediately. *)
      match Unix.select (stop :: fds) [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | ready, _, _ ->
          if List.mem stop ready then ()
          else begin
            List.iter
              (fun lfd ->
                if List.mem lfd ready then
                  match Unix.accept ~cloexec:true lfd with
                  | fd, _ -> spawn_connection reg ~handler fd
                  | exception Unix.Unix_error _ -> ())
              fds;
            accept_loop ()
          end
  in
  accept_loop ();
  drain reg
