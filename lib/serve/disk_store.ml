type counters = {
  corrupt : Ir_obs.counter;
  errors : Ir_obs.counter;
  tmp_swept : Ir_obs.counter;
}

type t = { tag : string; suffix : string; counters : counters; dir : string }

let is_hex c =
  (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let path ~dir ~suffix key =
  if key = "" || not (String.for_all is_hex key) then
    invalid_arg "Disk_store.path: key is not hex";
  Filename.concat dir (key ^ suffix)

let entry_path t ~key = path ~dir:t.dir ~suffix:t.suffix key

(* A writer killed between [temp_file] and the rename leaves an orphan.
   Only demonstrably stale ones are reaped: a concurrent process's
   in-flight temp file is at most seconds old. *)
let tmp_stale_age = 600.0

let sweep_stale_tmps t =
  match Sys.readdir t.dir with
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
            let p = Filename.concat t.dir name in
            match Unix.stat p with
            | exception Unix.Unix_error _ -> ()
            | st ->
                if now -. st.Unix.st_mtime > tmp_stale_age then (
                  match Sys.remove p with
                  | () -> Ir_obs.incr t.counters.tmp_swept
                  | exception Sys_error _ -> ()))
        names

let create ~tag ~suffix counters ~dir =
  match Ir_sweep.Export.ensure_dir dir with
  | Error e -> Error e
  | Ok () ->
      let t = { tag; suffix; counters; dir } in
      sweep_stale_tmps t;
      Ok t

let save t ~key bytes =
  let header =
    Printf.sprintf "%s\nkey: %s\nblob-md5: %s\nblob-bytes: %d\n" t.tag key
      (Digest.to_hex (Digest.string bytes))
      (String.length bytes)
  in
  let failed () =
    Ir_obs.incr t.counters.errors;
    false
  in
  match Filename.temp_file ~temp_dir:t.dir ("." ^ key) ".tmp" with
  | exception Sys_error _ -> failed ()
  | tmp -> (
      match
        Out_channel.with_open_bin tmp (fun oc ->
            Out_channel.output_string oc header;
            Out_channel.output_string oc bytes);
        Sys.rename tmp (entry_path t ~key)
      with
      | () -> true
      | exception Sys_error _ ->
          (* Under steady traffic against a full disk, orphans left by
             failed writes would pile up without bound. *)
          (try Sys.remove tmp with Sys_error _ -> ());
          failed ())

let discard t ~key =
  Ir_obs.incr t.counters.corrupt;
  try Sys.remove (entry_path t ~key) with Sys_error _ -> ()

(* [lines contents n] splits off the first [n] newline-terminated lines,
   returning them and the remainder. *)
let lines contents n =
  let rec split acc off n =
    if n = 0 then
      let rest = String.sub contents off (String.length contents - off) in
      Some (List.rev acc, rest)
    else
      match String.index_from_opt contents off '\n' with
      | None -> None
      | Some i ->
          split (String.sub contents off (i - off) :: acc) (i + 1) (n - 1)
  in
  split [] 0 n

let load t ~key =
  match In_channel.with_open_bin (entry_path t ~key) In_channel.input_all with
  | exception Sys_error _ -> Error `Absent
  | contents -> (
      match lines contents 4 with
      | Some ([ tag; key_line; md5_line; len_line ], bytes)
        when tag = t.tag
             && key_line = "key: " ^ key
             && len_line = "blob-bytes: " ^ string_of_int (String.length bytes)
             && md5_line = "blob-md5: " ^ Digest.to_hex (Digest.string bytes)
        ->
          Ok bytes
      | _ ->
          discard t ~key;
          Error `Corrupt)
