module Rank_dp = Ir_core.Rank_dp

let stat_saves = Ir_obs.counter "serve_snapshot/saves"
let stat_restores = Ir_obs.counter "serve_snapshot/restores"
let stat_misses = Ir_obs.counter "serve_snapshot/misses"

let counters =
  {
    Disk_store.corrupt = Ir_obs.counter "serve_snapshot/corrupt";
    errors = Ir_obs.counter "serve_snapshot/errors";
    tmp_swept = Ir_obs.counter "serve_snapshot/tmp_swept";
  }

(* One counter per decoder error, registered up front so each reads 0
   until its error occurs. *)
let decode_counters =
  List.map
    (fun e ->
      ( e,
        Ir_obs.counter ("serve_snapshot/decode_" ^ Rank_dp.decode_error_name e)
      ))
    Rank_dp.decode_errors

(* The stored bytes are [Rank_dp.encode_tables] output, decoded only
   after {!Disk_store.load} verified them.  The tag versions the table
   encoding together with the DP semantics: a change to either bumps it,
   and the store then discards every older entry on load, unread.
   /2: the table encoding moved to digest-prefixed Bigarray planes
   (the grid kernel's storage) — /1 blobs no longer decode.
   /3: the front holds rows 0..m-1 only (the unread row m is no longer
   built), so a /2 blob's front has one row too many.
   /4: an explicit codec replaces [Marshal] output: fixed-width
   little-endian fields for the live states only, validated field by
   field on decode. *)
let schema_tag = "ia-rank/table-snapshot/4"

type t = Disk_store.t

let create ~dir =
  Disk_store.create ~tag:schema_tag ~suffix:".tables" counters ~dir

let entry_path = Disk_store.entry_path

let save t ~key tables =
  if Disk_store.save t ~key (Rank_dp.encode_tables tables) then
    Ir_obs.incr stat_saves

let load t ~key ~problem =
  match Disk_store.load t ~key with
  | Error `Absent ->
      Ir_obs.incr stat_misses;
      None
  | Error `Corrupt -> None
  | Ok blob -> (
      (* Only a verified blob is worth the problem it is checked
         against. *)
      match Rank_dp.decode_tables (problem ()) blob with
      | Ok tables ->
          Ir_obs.incr stat_restores;
          Some tables
      | Error e ->
          Ir_obs.incr (List.assoc e decode_counters);
          Disk_store.discard t ~key;
          None)
