(** Flat struct-of-arrays Pareto-front store for the phase-A rank DP.

    A single value holds the fronts of {e every} DP cell of one
    {!Rank_dp.build_tables} run.  A cell that holds a state owns a slice
    of parallel flat planes, handed out when the cell gets its first
    state; a cell that never holds one owns nothing, so the store grows
    with the live states, not with the cell count.  Per cell, areas
    ascend strictly and repeater counts descend strictly (the Pareto
    invariant), so a dominance check is an O(log width) binary search
    and an insertion an in-place shift.  A sorted run of candidates (one
    source front shifted by a fixed cost) needs no search per element:
    its positions never decrease, so {!Rank_dp}'s inlined pre-check
    places the run by one forward walk over {!raw_area}.  The hot loop
    performs no per-insert allocation; the planes grow, by doubling,
    only when a cell gets its first state.  The interval split carried
    by each state lives in a compact growable parent-pointer arena;
    {!splits} rebuilds the historical [splits : int list] on demand (only
    for the O(log n) witness probes, never in the build loop).

    Semantics — surviving states, their order, and the
    dominated/truncation tallies — are exactly those of the list-based
    kernel this replaces; [test_core]'s differential property test keeps
    that reference implementation and checks equality on random insert
    sequences. *)

type t

val create : cells : int -> width : int -> t
(** [create ~cells ~width] is a store of [cells] empty fronts of capacity
    [width] ([max_pareto]) each.  It allocates the per-cell index only:
    a cell's slots come with its first state.  Raises [Invalid_argument]
    unless both are positive. *)

val width : t -> int

val cells : t -> int
(** The cell count the store was created for. *)

(** {1 Front access}

    Cells are caller-numbered [0 .. cells-1]; elements of a cell are
    indexed [0 .. length t cell - 1] in ascending-area order. *)

val length : t -> int -> int
val area : t -> int -> int -> float
val count : t -> int -> int -> int

val state : t -> int -> int -> int
(** Arena id of the element, for {!splits} and as [~parent] of successor
    states.  An id is valid only while its element remains in the front:
    eviction (dominance or truncation) recycles the arena slot, so read
    ids fresh from live elements at use time — never cache one across
    inserts into the same cell.  The DP build respects this by
    construction: every insert into a cell happens before that cell is
    expanded, so an evicted state can have no live descendants. *)

val split : t -> int -> int
(** The split recorded for arena state [id]: the end of the interval the
    state's pair holds, or [-1] for a root ({!seed}). *)

val parent : t -> int -> int
(** The arena id of state [id]'s predecessor, or [-1] for a root.
    {!splits} walks these links. *)

val min_area : t -> int -> float
(** Smallest area in the cell — undefined when the cell is empty. *)

(** {1 Expert read-only access}

    Aliases of the live internal planes, for callers whose inner loop
    cannot afford a function call per element (without flambda, every
    call boxes float arguments and returns).  Element [k] of [cell]
    lives at index [base t cell + k]; the live length of a cell is
    [(raw_len t).(cell)].  [raw_len] stays valid for the lifetime of
    [t], and so does a cell's [base] once it is not [-1].  [raw_area]
    and [raw_count] stay valid only until the next {!seed} or {!insert}
    into an empty cell, which hands that cell its slice and may move the
    planes to larger arrays.  Re-read the views, and the base of the
    cell inserted into, after every {!insert}.  Never write through
    them — all updates must go through {!seed} and {!insert} or the
    Pareto invariant and the statistics break. *)

val base : t -> int -> int
(** The index of the cell's first element in {!raw_area} and
    {!raw_count}, or [-1] while the cell has never held a state. *)

val raw_area : t -> float array
val raw_count : t -> int array
val raw_len : t -> int array

(** {1 Building} *)

val seed : t -> int -> area : float -> count : int -> unit
(** Places a root state ([splits = []]) in an empty cell directly,
    without touching the insert statistics (mirrors the old kernel's
    direct [dp.(0).(0) <- ...] seeding).  Raises [Invalid_argument] if
    the cell is non-empty. *)

val insert :
  t -> int -> area : float -> count : int -> split : int -> parent : int -> unit
(** [insert t cell ~area ~count ~split ~parent] offers a candidate state
    to the cell's front: dropped if a present element dominates it
    (area and count both [<=], counted in {!dominated}); otherwise placed
    in order, evicting the elements it dominates.  If the front then
    exceeds [width], the smallest-area [width - 1] elements plus the
    min-count last one are kept and {!truncations} grows by the number
    dropped.  [parent] is the arena id of the predecessor state
    ({!Front.state}), or [-1] for a root.  An insert into an empty cell
    hands the cell its slice (see {!slices}). *)

val restore :
  width:int ->
  len:int array ->
  area:float array ->
  count:int array ->
  split:int array ->
  parent:int array ->
  t
(** [restore ~width ~len ~area ~count ~split ~parent] is a store of
    [Array.length len] cells holding exactly the given states, for a
    decoded table snapshot: cell [c] holds the next [len.(c)] states,
    in order, and state [s] gets arena id [s] with split [split.(s)]
    and parent [parent.(s)] (an earlier state's id, or [-1]).  The
    arena holds the live states and nothing else, and each non-empty
    cell gets one slice, so the planes hold them and nothing else.  Raises
    [Invalid_argument] unless every length is within [width], the
    lengths add up to the state count and each parent precedes its
    child — what keeps the store's accessors and {!splits} well
    defined.  The Pareto order is not checked: callers validate it
    ({!Rank_dp.decode_tables} does).  The tallies start at zero. *)

(** {1 Witness reconstruction} *)

val splits : t -> int -> int list
(** [splits t id] walks the parent chain of arena state [id] and returns
    the recorded splits top-down — the [splits] list the historical
    per-state representation carried inline. *)

(** {1 Statistics} *)

val slices : t -> int
(** Cells that have been handed a slice: every cell that ever held a
    state.  Reported to the [rank_dp/front_slices] gauge. *)

val inserts : t -> int
val dominated : t -> int
val truncations : t -> int

val arena_states : t -> int
(** High-water mark of {e live} arena states — evicted states return
    their slots to a free list, so this is the peak concurrent state
    population (the kernel's true memory footprint), not the historical
    insert count.  Reported to the [rank_dp/front_arena] gauge. *)
