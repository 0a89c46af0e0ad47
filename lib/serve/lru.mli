(** Bounded least-recently-used map with O(1) operations: the result
    {!Cache}'s memory tier and the {!Server}'s resident-grid pool.

    Not thread-safe: every operation must run under the caller's lock. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** An empty map holding at most [capacity] (clamped to >= 1) entries. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** The value under a key; a hit becomes the most recently used. *)

val add : ('k, 'v) t -> 'k -> 'v -> int
(** Binds a key as the most recently used entry, replacing any previous
    binding, and evicts least recently used entries past capacity.
    Returns how many it evicted. *)

val length : ('k, 'v) t -> int

val keys_lru_first : ('k, 'v) t -> 'k list
(** Keys in eviction order, least recently used first. *)
