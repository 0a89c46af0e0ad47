(** Per-domain reusable scratch buffers for assignment hot paths.

    Parallel sweeps used to allocate their O(bunches) working arrays
    fresh per feasibility probe; under OCaml 5's stop-the-world minor GC
    every worker's churn stalls all domains.  A [t] is a growable int
    buffer the hot paths refill in place instead.  Refilling
    writes exactly the values fresh allocation would have, so verdicts,
    placements and counters are byte-identical either way — scratch is a
    pure allocation-traffic optimization, and the differential tests in
    [test_assign]/[test_core] assert as much.

    A [t] is single-user mutable state: never share one across
    concurrently running probes.  The intended lifecycle is one arena
    per worker domain ({!with_arena}), or one arena owned by a
    [Rank_dp] scratch record threaded through a search. *)

type t

val create : unit -> t
(** A fresh arena with an empty buffer; it grows on demand and never
    shrinks. *)

val ints : t -> int -> int array
(** [ints t n] returns the arena's int buffer, grown to at least [n]
    cells.  Contents beyond what the caller writes are unspecified
    (stale from previous uses) — callers must initialize [0 .. n-1]
    themselves and read nothing past it. *)

val with_arena : (t -> 'a) -> 'a
(** [with_arena f] runs [f] with the calling {e domain}'s arena,
    borrow-guarded: if another systhread of the same domain is already
    inside [with_arena] (the serve layer's worker threads share the
    domain's DLS slot), [f] gets a fresh throwaway arena instead — same
    results, no reuse.  Reentrant calls from [f] itself likewise fall
    back.  The borrow is released on return or raise. *)
