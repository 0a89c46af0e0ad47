(** Per-arena memory for {!Greedy_fill.fits}: the packed state below the
    top pair of the last full pack.

    Greedy fill packs bottom-up, so the pairs strictly below the top
    pair read only the problem, the suffix start, the top pair and the
    wires and repeaters above the pairs below.  Phase B asks for many
    packs that agree on those and differ only in the top pair's load
    (the boundary pair's used area and the wires and repeaters above
    it).  An arena keeps the last below-top state, so the next pack with
    the same key resumes at the top pair: the same float operations in
    the same order, hence the same verdict, every time.

    A [t] is single-user mutable state: never share one across
    concurrently running probes.  The intended lifecycle is one arena
    per worker domain ({!with_arena}). *)

type below = {
  problem : Problem.t;  (** compared by [==]; a problem is immutable *)
  from_bunch : int;
  top_pair : int;
  wires_above_below : int;
  reps_above_below : int;
  next : int;
      (** the pack cursor after the pairs below the top pair: bunch
          [next] is the only partly packed one, bunches above it are
          untouched; [next < from_bunch] when everything is packed *)
  rem : int;  (** wires of bunch [next] not yet packed *)
  packed : int;  (** suffix wires packed on the pairs below *)
}

type t

val create : unit -> t
(** A fresh arena holding no state. *)

val below : t -> below option
(** The state the last full pack through this arena left, if any. *)

val set_below : t -> below -> unit

val with_arena : (t -> 'a) -> 'a
(** [with_arena f] runs [f] with the calling {e domain}'s arena,
    borrow-guarded: if another systhread of the same domain is already
    inside [with_arena] (the serve layer's worker threads share the
    domain's DLS slot), [f] gets a fresh throwaway arena instead — same
    results, no reuse.  Reentrant calls from [f] itself likewise fall
    back.  Every borrow starts with no state, and the state is dropped
    when the borrow is released (on return or raise), so what an arena
    remembers depends only on the calls [f] makes, and no arena keeps a
    problem alive past its borrow. *)
