(** On-disk snapshots of warm phase-A DP tables.

    Building a family's tables is the expensive part of serving; a
    restarted shard that must rebuild every hot family answers cold for
    minutes.  This store persists each built family — keyed by
    {!Fingerprint.table_key} — so a fresh process restores it with one
    file read and serves warm immediately.

    The store is a {!Disk_store} (tag [ia-rank/table-snapshot/4],
    [<key>.tables] files).  Its payload is the table codec's blob
    ({!Ir_core.Rank_dp.encode_tables}: fixed-width fields for the live
    states, behind their own MD5).  A blob is decoded only after the
    store verified it, and the decoder then validates its structure
    against the problem.  A blob that still fails is deleted, counted
    on [serve_snapshot/corrupt] and on [serve_snapshot/decode_<error>]
    (one counter per {!Ir_core.Rank_dp.decode_error}, named by
    {!Ir_core.Rank_dp.decode_error_name}), and reported as a miss so
    the server rebuilds.  An entry under an older tag ([/2] and [/3]:
    [Marshal] output of the whole front, [/3] with rows [0..m-1] only)
    is discarded by the store unread.  Counters: [serve_snapshot/*] — [saves],
    [restores], [misses], [corrupt], [errors], [tmp_swept] and the
    [decode_*] family. *)

type t

val create : dir:string -> (t, string) result
(** Opens (creating if needed) the snapshot directory and sweeps stale
    temp files. *)

val save : t -> key:string -> Ir_core.Rank_dp.tables -> unit
(** Persists [tables] under [key] (a {!Fingerprint.table_key}).  Write
    failures count on [serve_snapshot/errors] and are otherwise ignored
    — snapshots are an accelerator, never a correctness dependency. *)

val load :
  t ->
  key:string ->
  problem:(unit -> Ir_assign.Problem.t) ->
  Ir_core.Rank_dp.tables option
(** The verified tables for [key], rebound to [problem ()] (the family
    query at repeater fraction 1.0 — the same problem {!save}'s tables
    were built from).  [problem] is called once, and only after the
    store verified a blob: a miss or a corrupt entry never builds the
    problem.  [None] on miss or on any integrity failure. *)

val entry_path : t -> key:string -> string
(** Where [key]'s snapshot lives (exposed so tests can corrupt it). *)
