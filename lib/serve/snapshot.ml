let stat_saves = Ir_obs.counter "serve_snapshot/saves"
let stat_restores = Ir_obs.counter "serve_snapshot/restores"
let stat_misses = Ir_obs.counter "serve_snapshot/misses"
let stat_corrupt = Ir_obs.counter "serve_snapshot/corrupt"
let stat_errors = Ir_obs.counter "serve_snapshot/errors"
let stat_tmp_swept = Ir_obs.counter "serve_snapshot/tmp_swept"

(* Snapshot file layout: a text header followed by a raw binary blob.
     ia-rank/table-snapshot/<version>
     key: <table_key hex>
     blob-md5: <hex md5 of the blob>
     blob-bytes: <decimal blob length>
     <blob>
   The blob is [Rank_dp.encode_tables] output — Marshal bytes, which can
   crash the process if fed garbage, so nothing is decoded before the
   schema tag, the recorded key, the length and the checksum all verify.
   The tag versions the table encoding together with the DP semantics: a
   PR changing either bumps it and old snapshots self-invalidate. *)
let schema_tag = "ia-rank/table-snapshot/3"
(* /2: the table encoding moved to digest-prefixed Bigarray planes
   (the grid kernel's storage) — /1 blobs no longer decode.
   /3: the front holds rows 0..m-1 only (the unread row m is no longer
   built), so a /2 blob's front has one row too many. *)

type t = { dir : string }

let entry_path t ~key =
  if
    key = ""
    || String.exists
         (fun c ->
           not
             ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
             || (c >= 'A' && c <= 'F')))
         key
  then invalid_arg "Snapshot.entry_path: key is not hex";
  Filename.concat t.dir (key ^ ".tables")

(* Same crash-orphan reaping as the result cache's, with the same
   age threshold rationale: a live concurrent shard's in-flight temp
   file is seconds old and must survive the sweep. *)
let tmp_stale_age = 600.0

let sweep_stale_tmps dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
      let now = Unix.gettimeofday () in
      Array.iter
        (fun name ->
          if
            String.length name > 4
            && name.[0] = '.'
            && Filename.check_suffix name ".tmp"
          then
            let path = Filename.concat dir name in
            match Unix.stat path with
            | exception Unix.Unix_error _ -> ()
            | st ->
                if now -. st.Unix.st_mtime > tmp_stale_age then (
                  match Sys.remove path with
                  | () -> Ir_obs.incr stat_tmp_swept
                  | exception Sys_error _ -> ()))
        names

let create ~dir =
  match Ir_sweep.Export.ensure_dir dir with
  | Ok () ->
      sweep_stale_tmps dir;
      Ok { dir }
  | Error e -> Error e

let render ~key blob =
  String.concat ""
    [
      schema_tag; "\n"; "key: "; key; "\n"; "blob-md5: ";
      Digest.to_hex (Digest.string blob); "\n"; "blob-bytes: ";
      string_of_int (String.length blob); "\n"; blob;
    ]

let save t ~key tables =
  let blob = Ir_core.Rank_dp.encode_tables tables in
  (* Temp file + atomic rename: shard processes share one snapshot
     directory, and a family computed simultaneously by two shards (or a
     crash mid-write) must never publish a torn file. *)
  match Filename.temp_file ~temp_dir:t.dir ("." ^ key) ".tmp" with
  | exception Sys_error _ -> Ir_obs.incr stat_errors
  | tmp -> (
      match
        Out_channel.with_open_bin tmp (fun oc ->
            Out_channel.output_string oc (render ~key blob));
        Sys.rename tmp (entry_path t ~key)
      with
      | () -> Ir_obs.incr stat_saves
      | exception Sys_error _ ->
          Ir_obs.incr stat_errors;
          (try Sys.remove tmp with Sys_error _ -> ()))

let discard_corrupt path =
  Ir_obs.incr stat_corrupt;
  try Sys.remove path with Sys_error _ -> ()

(* [header contents n] splits off the first [n] newline-terminated lines,
   returning them and the remainder (the blob). *)
let header contents n =
  let rec split acc off n =
    if n = 0 then
      Some (List.rev acc, String.sub contents off (String.length contents - off))
    else
      match String.index_from_opt contents off '\n' with
      | None -> None
      | Some i -> split (String.sub contents off (i - off) :: acc) (i + 1) (n - 1)
  in
  if String.length contents = 0 then None else split [] 0 n

let load t ~key ~problem =
  let path = entry_path t ~key in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ ->
      Ir_obs.incr stat_misses;
      None
  | contents -> (
      match header contents 4 with
      | Some ([ tag; key_line; md5_line; len_line ], blob)
        when tag = schema_tag
             && key_line = "key: " ^ key
             && len_line = "blob-bytes: " ^ string_of_int (String.length blob)
             && md5_line = "blob-md5: " ^ Digest.to_hex (Digest.string blob)
        -> (
          (* Only now is the blob trusted enough to unmarshal; the
             decoder still re-checks the dimensions against [problem]. *)
          match Ir_core.Rank_dp.decode_tables problem blob with
          | Some tables ->
              Ir_obs.incr stat_restores;
              Some tables
          | None ->
              discard_corrupt path;
              None)
      | _ ->
          discard_corrupt path;
          None)
