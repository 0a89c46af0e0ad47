(* Flat struct-of-arrays Pareto-front store for the phase-A rank DP.

   One [t] holds every (pair, bunch) cell of a DP build: per cell a
   fixed-capacity slice of parallel Bigarray planes sorted area-ascending
   (hence, by the Pareto invariant, count-descending).  A dominance check
   is a binary search over the slice; [Rank_dp]'s inlined pre-check
   places a sorted run of candidates by one forward walk instead,
   searching only for the first and after each insert.  Insertion is an
   in-place blit shift, and the interval splits previously carried by
   every state as an [int list] live in a compact parent-pointer arena
   instead — the hot loop allocates nothing per insert (the arena grows
   only for states that actually enter a front, by doubling).

   The planes are flat [Bigarray.Array1] buffers rather than OCaml
   arrays: unboxed float64 / native-int storage outside the OCaml heap,
   so a grid of resident builds (the whole-sweep wavefront kernel holds
   one store per parameter plane concurrently) costs the minor GC
   nothing to scan.
   Access cost is the same as [float array] — [Array1] float64 reads are
   unboxed — and the blit shift is a [memmove], which tolerates the
   overlapping ranges the insertion shuffle produces.

   The semantics are exactly those of the historical list-based kernel
   (kept as the reference implementation in [test_core.ml]'s differential
   property test): same surviving states in the same order, same
   dominated/truncation tallies, including the width-overflow rule that
   keeps the [width - 1] smallest-area states plus the min-count last
   one. *)

type farray = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type iarray = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let falloc len : farray =
  let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len in
  Bigarray.Array1.fill a 0.0;
  a

let ialloc ?(init = 0) len : iarray =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  Bigarray.Array1.fill a init;
  a

(* memmove-backed blit between (possibly overlapping) ranges of the same
   plane — the insertion shuffle moves a cell's tail up by one slot. *)
let fblit (a : farray) ~src ~dst ~len =
  if len > 0 then
    Bigarray.Array1.blit
      (Bigarray.Array1.sub a src len)
      (Bigarray.Array1.sub a dst len)

let iblit (a : iarray) ~src ~dst ~len =
  if len > 0 then
    Bigarray.Array1.blit
      (Bigarray.Array1.sub a src len)
      (Bigarray.Array1.sub a dst len)

type t = {
  width : int;  (* max states per cell (max_pareto) *)
  stride : int;  (* width + 1: one slack slot for the overflow shuffle *)
  cells : int;
  area : farray;  (* cells * stride, area-ascending per cell *)
  count : iarray;  (* cells * stride, count-descending per cell *)
  state : iarray;  (* cells * stride, arena id per element *)
  len : iarray;  (* cells *)
  (* Parent-pointer arena: one (split, parent) pair per live state.  Ids
     are stable across growth.  Slots of evicted states are recycled
     through a free list threaded via [arena_parent]: the DP build only
     inserts into a cell {e before} that cell is expanded, so a state
     evicted from its front can never be the parent of a live state and
     its slot is immediately reusable.  (Callers must therefore never
     retain an id past its element's eviction — [Rank_dp] reads parent
     ids fresh from live elements at expansion time.)  Without recycling
     the arena grows with every insert that survives even briefly: the
     10M-gate N90 bench cell reached 70.8M slots (~GBs of int arrays,
     doubling copies and page-fault churn) against a live-state peak
     three orders of magnitude smaller. *)
  mutable arena_split : iarray;
  mutable arena_parent : iarray;
  mutable arena_len : int;  (* slots ever touched: free list + live *)
  mutable arena_free : int;  (* head of the free list, or [no_parent] *)
  mutable arena_live : int;
  mutable arena_hw : int;  (* high-water mark of [arena_live] *)
  (* Per-build tallies, flushed to Ir_obs by the caller. *)
  mutable inserts : int;
  mutable dominated : int;
  mutable truncations : int;
}

let no_parent = -1

(* A store with empty fronts and an arena of [arena] slots. *)
let make ~cells ~width ~arena =
  let stride = width + 1 in
  {
    width;
    stride;
    cells;
    area = falloc (cells * stride);
    count = ialloc (cells * stride);
    state = ialloc ~init:no_parent (cells * stride);
    len = ialloc cells;
    arena_split = ialloc arena;
    arena_parent = ialloc ~init:no_parent arena;
    arena_len = 0;
    arena_free = no_parent;
    arena_live = 0;
    arena_hw = 0;
    inserts = 0;
    dominated = 0;
    truncations = 0;
  }

let create ~cells ~width =
  if cells <= 0 then invalid_arg "Front.create: cells must be positive";
  if width <= 0 then invalid_arg "Front.create: width must be positive";
  make ~cells ~width ~arena:256

(* A decoded store: state [s] of the given order gets arena id [s], so
   the arena holds the live states and nothing else.  Only what keeps
   the store well formed is checked here — lengths within the width,
   the state count, parents that precede their children (so {!splits}
   terminates); the Pareto order is the decoder's to validate. *)
let restore ~width ~len ~area ~count ~split ~parent =
  let bad what = invalid_arg ("Front.restore: " ^ what) in
  let cells = Array.length len and states = Array.length area in
  if cells <= 0 then bad "cells must be positive";
  if width <= 0 then bad "width must be positive";
  if
    Array.length count <> states
    || Array.length split <> states
    || Array.length parent <> states
  then bad "state arrays differ in length";
  (* One spare slot, so a later insert's doubling has a size to double. *)
  let t = make ~cells ~width ~arena:(states + 1) in
  let s = ref 0 in
  Array.iteri
    (fun c l ->
      if l < 0 || l > width then bad "length out of range";
      if !s + l > states then bad "fewer states than the lengths hold";
      for k = 0 to l - 1 do
        let id = !s + k in
        if parent.(id) < no_parent || parent.(id) >= id then
          bad "a parent does not precede its child";
        let at = (c * t.stride) + k in
        t.area.{at} <- area.(id);
        t.count.{at} <- count.(id);
        t.state.{at} <- id;
        t.arena_split.{id} <- split.(id);
        t.arena_parent.{id} <- parent.(id)
      done;
      t.len.{c} <- l;
      s := !s + l)
    len;
  if !s <> states then bad "more states than the lengths hold";
  t.arena_len <- states;
  t.arena_live <- states;
  t.arena_hw <- states;
  t

let width t = t.width
let cells t = t.cells
let length t cell = t.len.{cell}
let area t cell k = t.area.{(cell * t.stride) + k}
let count t cell k = t.count.{(cell * t.stride) + k}
let state t cell k = t.state.{(cell * t.stride) + k}
let split t id = t.arena_split.{id}
let parent t id = t.arena_parent.{id}

(* Area-ascending order makes the minimum the first element. *)
let min_area t cell = t.area.{cell * t.stride}
let stride t = t.stride

(* The backing planes are never reallocated (only the arena grows), so
   these aliases stay valid for the lifetime of [t]. *)
let raw_area t = t.area
let raw_count t = t.count
let raw_len t = t.len
let inserts t = t.inserts
let dominated t = t.dominated
let truncations t = t.truncations
let arena_states t = t.arena_hw

let alloc_state t ~split ~parent =
  let id =
    if t.arena_free <> no_parent then begin
      let id = t.arena_free in
      t.arena_free <- t.arena_parent.{id};
      id
    end
    else begin
      let cap = Bigarray.Array1.dim t.arena_split in
      if t.arena_len = cap then begin
        let splits = ialloc (2 * cap) in
        let parents = ialloc ~init:no_parent (2 * cap) in
        Bigarray.Array1.blit t.arena_split (Bigarray.Array1.sub splits 0 cap);
        Bigarray.Array1.blit t.arena_parent
          (Bigarray.Array1.sub parents 0 cap);
        t.arena_split <- splits;
        t.arena_parent <- parents
      end;
      let id = t.arena_len in
      t.arena_len <- id + 1;
      id
    end
  in
  t.arena_split.{id} <- split;
  t.arena_parent.{id} <- parent;
  t.arena_live <- t.arena_live + 1;
  if t.arena_live > t.arena_hw then t.arena_hw <- t.arena_live;
  id

(* Return an evicted state's slot to the free list.  Sound because of
   the insert-before-expand discipline documented on the arena fields:
   nothing live can still point at [id]. *)
let release_state t id =
  t.arena_parent.{id} <- t.arena_free;
  t.arena_free <- id;
  t.arena_live <- t.arena_live - 1

let seed t cell ~area ~count =
  if t.len.{cell} <> 0 then invalid_arg "Front.seed: cell not empty";
  let base = cell * t.stride in
  t.area.{base} <- area;
  t.count.{base} <- count;
  t.state.{base} <- alloc_state t ~split:(-1) ~parent:no_parent;
  t.len.{cell} <- 1

let insert t cell ~area:a ~count:c ~split ~parent =
  t.inserts <- t.inserts + 1;
  let base = cell * t.stride in
  let n = t.len.{cell} in
  (* Upper bound: first index whose area exceeds [a]. *)
  let lo = ref 0 and hi = ref n in
  while !hi > !lo do
    let mid = (!lo + !hi) / 2 in
    if t.area.{base + mid} <= a then lo := mid + 1 else hi := mid
  done;
  let p = !lo in
  (* Everything in [0, p) has area <= a; counts descend, so the last of
     them carries their minimum count — it dominates the candidate iff
     any element does. *)
  if p > 0 && t.count.{base + p - 1} <= c then
    t.dominated <- t.dominated + 1
  else begin
    (* Elements dominated by the candidate (area >= a and count >= c)
       form the contiguous run [s, q): area >= a is a suffix starting at
       p — or at p - 1 when that element ties on area, in which case the
       dominance check above guarantees its count exceeds c — and
       count >= c is a prefix. *)
    let s = if p > 0 && t.area.{base + p - 1} = a then p - 1 else p in
    let lo = ref s and hi = ref n in
    while !hi > !lo do
      let mid = (!lo + !hi) / 2 in
      if t.count.{base + mid} >= c then lo := mid + 1 else hi := mid
    done;
    let q = !lo in
    for d = s to q - 1 do
      release_state t t.state.{base + d}
    done;
    let tail = n - q in
    fblit t.area ~src:(base + q) ~dst:(base + s + 1) ~len:tail;
    iblit t.count ~src:(base + q) ~dst:(base + s + 1) ~len:tail;
    iblit t.state ~src:(base + q) ~dst:(base + s + 1) ~len:tail;
    t.area.{base + s} <- a;
    t.count.{base + s} <- c;
    t.state.{base + s} <- alloc_state t ~split ~parent;
    let n' = n - (q - s) + 1 in
    if n' > t.width then begin
      (* Dropping a non-dominated state: the DP may now under-report the
         rank.  Count it — [truncations = 0] is what licenses the [exact]
         claim on the outcome.  Keep the smallest-area states plus the
         min-count last one (the same rule as the list kernel). *)
      t.truncations <- t.truncations + (n' - t.width);
      for d = t.width - 1 to n' - 2 do
        release_state t t.state.{base + d}
      done;
      t.area.{base + t.width - 1} <- t.area.{base + n' - 1};
      t.count.{base + t.width - 1} <- t.count.{base + n' - 1};
      t.state.{base + t.width - 1} <- t.state.{base + n' - 1};
      t.len.{cell} <- t.width
    end
    else t.len.{cell} <- n'
  end

let splits t id =
  (* Seeds record split -1 (they carry no interval end); every other
     state contributes its split and continues into its parent chain,
     which ends either at a seed or at a root-parented insert. *)
  let rec walk id acc =
    if id = no_parent then acc
    else
      let split = t.arena_split.{id} in
      if split < 0 then acc else walk t.arena_parent.{id} (split :: acc)
  in
  walk id []
