(** Content-addressed result cache for the rank query service.

    Two tiers keyed by the query fingerprint ({!Fingerprint.digest}):

    - a bounded in-memory {!Lru} of result payloads (the canonical
      response JSON bytes), evicting the least recently {e used} entry —
      lookups refresh recency — when the capacity is exceeded;
    - an optional {!Disk_store} (one file per digest under the server's
      [--cache-dir], tag [ia-rank/cache/2]) that survives restarts.  An
      entry that fails verification is deleted, counted on
      [serve_cache/disk_corrupt] and reported as a miss, so the server
      recomputes.

    All operations are thread-safe (one lock around the memory tier;
    disk I/O runs outside it).  Counters land on [serve_cache/*]
    ({!Ir_obs}): [mem_hits], [disk_hits], [misses], [evictions],
    [disk_corrupt], [disk_errors], [stores], [tmp_swept]. *)

type t

val create : ?capacity:int -> ?dir:string -> unit -> (t, string) result
(** [capacity] (default 512, clamped to >= 1) bounds the in-memory tier;
    [dir] enables the disk tier ({!Disk_store.create}; stale temp files
    swept count on [serve_cache/tmp_swept]). *)

type source = Memory | Disk

val find : t -> digest:string -> (string * source) option
(** The cached payload for [digest], consulting memory then disk.  A
    disk hit is promoted into the memory tier.  Counts a hit on the
    winning tier or one miss. *)

val store : t -> digest:string -> string -> unit
(** Publishes a payload under [digest] in both tiers.  Disk write
    failures are counted ([serve_cache/disk_errors]) and otherwise
    ignored — the cache is an accelerator, never a correctness
    dependency. *)

val mem_count : t -> int
(** Entries currently in the memory tier (for tests and [--stats]). *)

val mem_keys_lru_first : t -> string list
(** Digests in eviction order, least recently used first — exposed for
    the LRU property tests. *)

val entry_path : dir:string -> digest:string -> string
(** Where the disk tier stores a digest's entry file (exposed so tests
    can corrupt entries deliberately). *)
