(** On-disk snapshots of warm phase-A DP tables.

    Building a family's tables is the expensive part of serving; a
    restarted shard that must rebuild every hot family answers cold for
    minutes.  This store persists each built family — keyed by
    {!Fingerprint.table_key} — so a fresh process restores it with one
    file read and serves warm immediately.

    The store is a {!Disk_store} (tag [ia-rank/table-snapshot/3],
    [<key>.tables] files).  Its payload is [Marshal] output
    ({!Ir_core.Rank_dp.encode_tables}), which can crash a process that
    unmarshals garbage, so a blob is decoded only after the store
    verified it, and the decoder then re-validates dimensions against
    the problem.  A blob that still fails is deleted, counted on
    [serve_snapshot/corrupt] and reported as a miss so the server
    rebuilds.  Counters: [serve_snapshot/*] — [saves], [restores],
    [misses], [corrupt], [errors], [tmp_swept]. *)

type t

val create : dir:string -> (t, string) result
(** Opens (creating if needed) the snapshot directory and sweeps stale
    temp files. *)

val save : t -> key:string -> Ir_core.Rank_dp.tables -> unit
(** Persists [tables] under [key] (a {!Fingerprint.table_key}).  Write
    failures count on [serve_snapshot/errors] and are otherwise ignored
    — snapshots are an accelerator, never a correctness dependency. *)

val load :
  t -> key:string -> problem:Ir_assign.Problem.t -> Ir_core.Rank_dp.tables option
(** The verified tables for [key], rebound to [problem] (the family
    query at repeater fraction 1.0 — the same problem {!save}'s tables
    were built from).  [None] on miss or on any integrity failure. *)

val entry_path : t -> key:string -> string
(** Where [key]'s snapshot lives (exposed so tests can corrupt it). *)
