(** Verified one-file-per-key disk store: the persistence under both the
    result {!Cache}'s disk tier and the table {!Snapshot}.

    {b The disk is never trusted.}  Each entry is one file,
    [<dir>/<key><suffix>], holding a text header followed by the raw
    bytes:
{v
<tag>
key: <key>
blob-md5: <hex md5 of the bytes>
blob-bytes: <decimal length of the bytes>
<bytes>
v}
    {!load} returns the bytes only after the tag, the recorded key (which
    must equal the key asked for — the filename proves nothing), the
    length and the checksum all verify.  Anything else — truncation, bit
    rot, a renamed file, an entry from an older schema — is deleted,
    counted on the caller's [corrupt] counter and reported as
    [`Corrupt].  The tag versions what the bytes mean: a change to that
    meaning bumps it, and every old entry self-invalidates on load.

    Writes go through a temp file in [dir] and an atomic rename, so
    processes sharing a directory (shard fleets) or a crash mid-write
    never publish a torn entry.  Opening a directory reaps
    crash-orphaned temp files older than ten minutes; a live writer's
    temp file is seconds old and survives. *)

type t

type counters = {
  corrupt : Ir_obs.counter;  (** entries discarded by {!load} or {!discard} *)
  errors : Ir_obs.counter;  (** failed writes *)
  tmp_swept : Ir_obs.counter;  (** stale temp files reaped by {!create} *)
}

val create :
  tag:string -> suffix:string -> counters -> dir:string -> (t, string) result
(** Opens [dir] (created recursively if missing — [Error] if a
    non-directory is in the way) and sweeps its stale temp files. *)

val path : dir:string -> suffix:string -> string -> string
(** The file that holds a key.  Keys are hex digests, so the name needs
    no escaping; anything else raises [Invalid_argument] rather than
    build a traversal path. *)

val entry_path : t -> key:string -> string
(** {!path} in this store's directory. *)

val save : t -> key:string -> string -> bool
(** Publishes [bytes] under [key]; [true] once the entry is in place.
    A failed write counts on [errors], leaves no temp file behind and
    returns [false]. *)

val load : t -> key:string -> (string, [ `Absent | `Corrupt ]) result
(** The verified bytes under [key].  [`Absent] is a plain miss (no file,
    nothing counted). *)

val discard : t -> key:string -> unit
(** Deletes and counts a verified entry whose bytes the caller still
    rejects (a snapshot that fails to decode). *)
