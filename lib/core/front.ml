(* Flat struct-of-arrays Pareto-front store for the phase-A rank DP.

   One [t] holds every (pair, bunch) cell of a DP build.  A cell that
   holds a state owns a slice of [stride = width + 1] slots in parallel
   planes, sorted area-ascending (hence, by the Pareto invariant,
   count-descending); a cell that never held one owns nothing.  A dense
   per-cell index gives each cell's length and the first slot of its
   slice, or [no_slice].  A cell gets its slice on its first state
   ({!seed} or the {!insert} that places it), slices are handed out in
   that order, and the planes grow by doubling (from [first_slices])
   when a slice does not fit, so the store's size follows the live
   states rather than the cell count: the 180nm/6M build of perfbench's
   [cross_widen] hands out 2,669 slices for 19,272 cells, and a no-fit
   build none.

   A dominance check is a binary search over the slice; [Rank_dp]'s
   inlined pre-check places a sorted run of candidates by one forward
   walk instead, searching only for the first and after each insert.
   Insertion is an in-place blit shift, and the interval splits
   previously carried by every state as an [int list] live in a compact
   parent-pointer arena instead — the hot loop allocates nothing per
   insert (the planes grow only when a cell gets its first state, the
   arena only for states that actually enter a front, both by doubling).

   The planes are OCaml [float array] / [int array]s, not Bigarrays: a
   float array is never scanned by the GC, and an int array holds
   immediates only, so its stores need no write barrier.  Off-heap
   Bigarray bytes count toward the major GC's pace, which is what made
   dense per-cell planes cost a major collection every few builds
   (DESIGN §13).

   The semantics are exactly those of the historical list-based kernel
   (kept as the reference implementation in [test_core.ml]'s differential
   property test): same surviving states in the same order, same
   dominated/truncation tallies, including the width-overflow rule that
   keeps the [width - 1] smallest-area states plus the min-count last
   one. *)

type t = {
  width : int;  (* max states per cell (max_pareto) *)
  stride : int;  (* width + 1: one slack slot for the overflow shuffle *)
  cells : int;
  len : int array;  (* per cell: its live length *)
  base : int array;  (* per cell: its slice's first slot, or [no_slice] *)
  mutable slices : int;  (* slices handed out *)
  (* [slices * stride] slots in use, area-ascending and count-descending
     per slice; the capacity doubles when a slice does not fit. *)
  mutable area : float array;
  mutable count : int array;
  mutable state : int array;  (* arena id per element *)
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
  mutable arena_split : int array;
  mutable arena_parent : int array;
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
let no_slice = -1

(* The planes' first size, in slices.  Small, so that the first slices
   of a build cost little and small builds grow their planes too. *)
let first_slices = 8

(* A store with empty fronts, room for [slices] slices and an arena of
   [arena] slots. *)
let make ~cells ~width ~slices ~arena =
  let stride = width + 1 in
  {
    width;
    stride;
    cells;
    len = Array.make cells 0;
    base = Array.make cells no_slice;
    slices = 0;
    area = Array.make (slices * stride) 0.0;
    count = Array.make (slices * stride) 0;
    state = Array.make (slices * stride) no_parent;
    arena_split = Array.make arena 0;
    arena_parent = Array.make arena no_parent;
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
  make ~cells ~width ~slices:0 ~arena:256

(* [a] copied into a fresh array of [size] elements, the rest [fill]. *)
let grown a size fill =
  let a' = Array.make size fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* The first slot of [cell]'s slice, handing the cell the next slice if
   it has none.  Growing the planes moves every slice but keeps its
   base, so a caller's raw views go stale here and its bases do not. *)
let slice t cell =
  let b = t.base.(cell) in
  if b <> no_slice then b
  else begin
    let b = t.slices * t.stride in
    let cap = Array.length t.area in
    if b + t.stride > cap then begin
      let size = max (first_slices * t.stride) (2 * cap) in
      t.area <- grown t.area size 0.0;
      t.count <- grown t.count size 0;
      t.state <- grown t.state size no_parent
    end;
    t.base.(cell) <- b;
    t.slices <- t.slices + 1;
    b
  end

(* A decoded store: state [s] of the given order gets arena id [s], so
   the arena holds the live states and nothing else, and each non-empty
   cell gets one slice, so the planes hold them and nothing else.  Only
   what keeps the store well formed is checked here — lengths within
   the width, the state count, parents that precede their children (so
   {!splits} terminates); the Pareto order is the decoder's to
   validate. *)
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
  let filled = Array.fold_left (fun k l -> if l > 0 then k + 1 else k) 0 len in
  (* One spare arena slot, so a later insert's doubling has a size to
     double. *)
  let t = make ~cells ~width ~slices:filled ~arena:(states + 1) in
  let s = ref 0 in
  Array.iteri
    (fun c l ->
      if l < 0 || l > width then bad "length out of range";
      if !s + l > states then bad "fewer states than the lengths hold";
      if l > 0 then begin
        let base = slice t c in
        for k = 0 to l - 1 do
          let id = !s + k in
          if parent.(id) < no_parent || parent.(id) >= id then
            bad "a parent does not precede its child";
          t.area.(base + k) <- area.(id);
          t.count.(base + k) <- count.(id);
          t.state.(base + k) <- id;
          t.arena_split.(id) <- split.(id);
          t.arena_parent.(id) <- parent.(id)
        done
      end;
      t.len.(c) <- l;
      s := !s + l)
    len;
  if !s <> states then bad "more states than the lengths hold";
  t.arena_len <- states;
  t.arena_live <- states;
  t.arena_hw <- states;
  t

let width t = t.width
let cells t = t.cells
let length t cell = t.len.(cell)
let area t cell k = t.area.(t.base.(cell) + k)
let count t cell k = t.count.(t.base.(cell) + k)
let state t cell k = t.state.(t.base.(cell) + k)
let split t id = t.arena_split.(id)
let parent t id = t.arena_parent.(id)

(* Area-ascending order makes the minimum the first element. *)
let min_area t cell = t.area.(t.base.(cell))
let base t cell = t.base.(cell)

(* [area] and [count] are replaced when a slice does not fit (see
   [slice]); the index arrays never are. *)
let raw_area t = t.area
let raw_count t = t.count
let raw_len t = t.len
let slices t = t.slices
let inserts t = t.inserts
let dominated t = t.dominated
let truncations t = t.truncations
let arena_states t = t.arena_hw

let alloc_state t ~split ~parent =
  let id =
    if t.arena_free <> no_parent then begin
      let id = t.arena_free in
      t.arena_free <- t.arena_parent.(id);
      id
    end
    else begin
      let cap = Array.length t.arena_split in
      if t.arena_len = cap then begin
        t.arena_split <- grown t.arena_split (2 * cap) 0;
        t.arena_parent <- grown t.arena_parent (2 * cap) no_parent
      end;
      let id = t.arena_len in
      t.arena_len <- id + 1;
      id
    end
  in
  t.arena_split.(id) <- split;
  t.arena_parent.(id) <- parent;
  t.arena_live <- t.arena_live + 1;
  if t.arena_live > t.arena_hw then t.arena_hw <- t.arena_live;
  id

(* Return an evicted state's slot to the free list.  Sound because of
   the insert-before-expand discipline documented on the arena fields:
   nothing live can still point at [id]. *)
let release_state t id =
  t.arena_parent.(id) <- t.arena_free;
  t.arena_free <- id;
  t.arena_live <- t.arena_live - 1

let seed t cell ~area ~count =
  if t.len.(cell) <> 0 then invalid_arg "Front.seed: cell not empty";
  let base = slice t cell in
  t.area.(base) <- area;
  t.count.(base) <- count;
  t.state.(base) <- alloc_state t ~split:(-1) ~parent:no_parent;
  t.len.(cell) <- 1

let insert t cell ~area:a ~count:c ~split ~parent =
  t.inserts <- t.inserts + 1;
  let n = t.len.(cell) in
  (* An empty cell takes every candidate, so it gets its slice here. *)
  let base = if n = 0 then slice t cell else t.base.(cell) in
  (* Upper bound: first index whose area exceeds [a]. *)
  let lo = ref 0 and hi = ref n in
  while !hi > !lo do
    let mid = (!lo + !hi) / 2 in
    if t.area.(base + mid) <= a then lo := mid + 1 else hi := mid
  done;
  let p = !lo in
  (* Everything in [0, p) has area <= a; counts descend, so the last of
     them carries their minimum count — it dominates the candidate iff
     any element does. *)
  if p > 0 && t.count.(base + p - 1) <= c then
    t.dominated <- t.dominated + 1
  else begin
    (* Elements dominated by the candidate (area >= a and count >= c)
       form the contiguous run [s, q): area >= a is a suffix starting at
       p — or at p - 1 when that element ties on area, in which case the
       dominance check above guarantees its count exceeds c — and
       count >= c is a prefix. *)
    let s = if p > 0 && t.area.(base + p - 1) = a then p - 1 else p in
    let lo = ref s and hi = ref n in
    while !hi > !lo do
      let mid = (!lo + !hi) / 2 in
      if t.count.(base + mid) >= c then lo := mid + 1 else hi := mid
    done;
    let q = !lo in
    for d = s to q - 1 do
      release_state t t.state.(base + d)
    done;
    (* [Array.blit] handles the overlapping ranges of the shuffle. *)
    let tail = n - q in
    Array.blit t.area (base + q) t.area (base + s + 1) tail;
    Array.blit t.count (base + q) t.count (base + s + 1) tail;
    Array.blit t.state (base + q) t.state (base + s + 1) tail;
    t.area.(base + s) <- a;
    t.count.(base + s) <- c;
    t.state.(base + s) <- alloc_state t ~split ~parent;
    let n' = n - (q - s) + 1 in
    if n' > t.width then begin
      (* Dropping a non-dominated state: the DP may now under-report the
         rank.  Count it — [truncations = 0] is what licenses the [exact]
         claim on the outcome.  Keep the smallest-area states plus the
         min-count last one (the same rule as the list kernel). *)
      t.truncations <- t.truncations + (n' - t.width);
      for d = t.width - 1 to n' - 2 do
        release_state t t.state.(base + d)
      done;
      t.area.(base + t.width - 1) <- t.area.(base + n' - 1);
      t.count.(base + t.width - 1) <- t.count.(base + n' - 1);
      t.state.(base + t.width - 1) <- t.state.(base + n' - 1);
      t.len.(cell) <- t.width
    end
    else t.len.(cell) <- n'
  end

let splits t id =
  (* Seeds record split -1 (they carry no interval end); every other
     state contributes its split and continues into its parent chain,
     which ends either at a seed or at a root-parented insert. *)
  let rec walk id acc =
    if id = no_parent then acc
    else
      let split = t.arena_split.(id) in
      if split < 0 then acc else walk t.arena_parent.(id) (split :: acc)
  in
  walk id []
