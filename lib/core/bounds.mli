(** Admissible bound oracle for the rank DP's pruning layer.

    A partial DP state at column [i] (bunches [[0..i)] meeting, prefix
    repeater area [a]) can only contribute a boundary [c > i] if the
    {e suffix} [[i..c)] can also be met within what is left of the
    repeater budget.  This module bounds that suffix cost from below by
    a fractional relaxation — every bunch independently takes the
    cheapest pair that can meet it ({!Ir_assign.Problem.min_rep_area_before}),
    dropping the contiguous-split constraint the DP enforces — which is
    admissible: any real assignment pays at least the relaxed cost, so

    {v a + lb(i -> c) > budget  =>  no completion of the state reaches c v}

    and a state whose optimistic boundary cannot beat the current
    {e incumbent} (best boundary already proven achievable, held in an
    {!Ir_exec.Incumbent} cell) is dropped before Front insertion and
    before any Greedy_fill / Suffix_fit oracle call.  The lower bound is
    additionally scaled by [1 -. 1e-9]: the relaxation prefix and the
    DP's own accumulation sum the same products in different orders, and
    the slack absorbs that rounding so "lower bound" remains literally
    true (soundness is re-proven empirically by the pruned ≡ unpruned
    QCheck differential).

    The matching {e achievable} side is {!pessimistic_probe}: a greedy
    DP chain whose largest packer-certified boundary seeds the
    incumbent, and
    {!suffix_reject}, the packer's own O(pairs) demand-vs-availability
    screen re-exposed so a certain-reject answers before the memo.

    All [bounds/*] counters declared here are deterministic (jobs=1 ≡
    jobs=N) because the incumbent is only published at sequential
    barriers — see {!Ir_exec.Incumbent}. *)

type t

val create : Ir_assign.Problem.t -> t
(** O(1): captures the problem's precomputed relaxation prefix.  Valid
    for every budget rebind of the same problem family (the prefix is
    budget-independent); the budget is passed per query below. *)

val suffix_cost : t -> from:int -> target:int -> float
(** Slack-scaled admissible lower bound on the repeater area needed to
    meet bunches [[from..target)]; [0.] when [target <= from],
    [+infinity] when the range contains a bunch no pair can meet. *)

val optimistic_boundary : t -> budget:float -> area:float -> from:int -> int
(** Largest [c] a column-[from] state with prefix area [area] could
    conceivably reach: [area +. suffix_cost ~from ~target:c <= budget].
    An upper bound on the state's attainable boundary (admissibility
    above); exposed for tests and diagnostics — the hot path uses
    {!fill_thresholds} instead. *)

val fill_thresholds : t -> budget:float -> incumbent:int -> float array -> unit
(** [fill_thresholds t ~budget ~incumbent thresh] writes, for each
    column [i <= n], the largest prefix area a state there may carry
    while still able to beat [incumbent]:
    [thresh.(i) = budget -. suffix_cost ~from:i ~target:(incumbent+1)].
    The DP prunes a state iff [area > thresh.(i)] — one float compare
    per state.  [incumbent < 0] writes [+infinity] everywhere (pruning
    off), [incumbent >= n] writes [neg_infinity] (nothing can beat a
    full rank).  [thresh] must have length [>= n + 1]. *)

val suffix_reject : t -> Ir_assign.Greedy_fill.context -> bool
(** {!Ir_assign.Greedy_fill.fast_reject} on the oracle's problem:
    [true] is a certain packer reject, answered in O(pairs) before the
    {!Ir_assign.Suffix_fit} memo or the packer runs.  Capacity-side
    only, so the verdict holds across budget rebinds of the family. *)

type probe = {
  pb_boundary : int;  (** certified achievable boundary; 0 = nothing *)
  pb_splits : int list;
      (** meeting ends of the pairs above [pb_pair], top-down — the
          [prefix_splits] of the certifying DP path *)
  pb_pair : int;  (** the boundary pair *)
  pb_meet_lo : int;  (** start of the boundary pair's meeting interval *)
  pb_reps_above : int;  (** repeater count strictly above [pb_pair] *)
  pb_reps_total : int;  (** ... plus the boundary pair's own meeting *)
}

val chain_probe :
  ?scratch:Ir_assign.Scratch.t ->
  t ->
  budget:float ->
  from_pair:int ->
  from_col:int ->
  area:float ->
  count:int ->
  probe option
(** Greedy chain extension of an existing DP state: starting at column
    [from_col] with prefix repeater area [area] and count [count], pairs
    [from_pair ..] extend the met prefix maximally under the DP's own
    expansion screens, and the largest boundary along the chain whose
    suffix the packer certifies is returned (binary search; usually one
    packer call).  [pb_splits] covers the {e extension} pairs only — the
    caller prepends the start state's own split history.
    [pb_reps_above] includes the start state's [count].  [None] when no
    boundary at all could be certified (even the degenerate empty
    extension's suffix was refused, or no pairs remain). *)
val pessimistic_probe :
  ?scratch:Ir_assign.Scratch.t -> t -> budget:float -> probe
(** [chain_probe] from the root (column 0, empty prefix): the
    achievable boundary that seeds the incumbent before the build's
    first level.  Every prefix of the chain is a state the exact DP
    also builds, so the certified boundary is sound as an incumbent
    floor.  Returns [pb_boundary = 0] (known achievable without
    certification) when even the empty chain's suffix is refused. *)

(** {2 Counters}

    [bounds/states_pruned], [bounds/oracle_calls_saved],
    [bounds/incumbent_updates], [bounds/probe_gated] — flushed by the DP once per build/search,
    zero-increment calls skipped. *)

val note_pruned : int -> unit
val note_saved : unit -> unit
val note_incumbent : unit -> unit

val note_gated : unit -> unit
(** One optimistic-bound pre-check just gated (skipped) a chain-probe
    packer call: the state's {!optimistic_boundary} could not beat the
    incumbent, so the probe was never run.  Deterministic like the rest — the gate reads the incumbent at
    a sequential barrier. *)
