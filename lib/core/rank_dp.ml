module P = Ir_assign.Problem
module GF = Ir_assign.Greedy_fill
module Scratch = Ir_assign.Scratch

(* Observability instruments (see Ir_obs).  Every counter here is a
   deterministic quantity: its total depends only on the instances
   processed, never on domain scheduling — the cross-domain determinism
   tests compare these between jobs=1 and jobs=N runs.  Counters on the
   hot paths are accumulated locally (inside Front for the kernel ones)
   and flushed once per call, so the inner loops never touch an atomic.
   The gauge records the largest per-build state arena, i.e. how many
   states survived insertion at least once in the worst build — a
   capacity watermark for the flat kernel, and deterministic like the
   counters (a maximum is order-independent). *)
let stat_states = Ir_obs.counter "rank_dp/states_expanded"
let stat_inserts = Ir_obs.counter "rank_dp/pareto_inserts"
let stat_dominated = Ir_obs.counter "rank_dp/pareto_dominated"
let stat_truncations = Ir_obs.counter "rank_dp/pareto_truncations"
let stat_screened = Ir_obs.counter "rank_dp/cells_screened"
let stat_transitions_skipped = Ir_obs.counter "rank_dp/transitions_skipped"
let stat_witness_probes = Ir_obs.counter "rank_dp/witness_probes"
let stat_search_probes = Ir_obs.counter "rank_dp/search_probes"
let stat_widen_retries = Ir_obs.counter "rank_dp/widen_retries"
let stat_hinted = Ir_obs.counter "rank_dp/hinted_searches"
let stat_hint_saved = Ir_obs.counter "rank_dp/hint_saved_probes"
let stat_fan_rounds = Ir_obs.counter "rank_dp/probe_fan_rounds"

let gauge_arena = Ir_obs.gauge "rank_dp/front_arena_states"
let gauge_slices = Ir_obs.gauge "rank_dp/front_slices"
let span_build = Ir_obs.span "rank_dp/build_tables"
let span_search = Ir_obs.span "rank_dp/search"

type witness = {
  boundary_pair : int;  (** pair holding the last meeting bunches *)
  prefix_splits : int list;
      (** interval end per pair above the boundary, top-down *)
  meet_lo : int;  (** meeting interval on the boundary pair *)
  meet_hi : int;
  reps_above : int;  (** repeaters in pairs above the boundary *)
  reps_total : int;  (** including the boundary pair's *)
}

type tables = {
  problem : P.t;
  front : Front.t;
      (* cell j * (n + 1) + i, rows j in [0, m): pairs [0..j) hold
         bunches [0..i), all meeting.  There is no row m: a witness puts
         its meeting interval on some pair j < m on top of a row-j
         prefix, so the all-pairs-prefix row is never read.  Dominance
         is on (repeater area, repeater count); the interval splits live
         in the front's parent-pointer arena and are reconstructed only
         for witness probes. *)
  n : int;
  m : int;
  max_pareto : int;
  truncations : int;
      (* non-dominated states dropped past max_pareto from the kept
         cells of the rows the search reads (the build fills no other
         cell); 0 means the phase-A front is complete and the search is
         exact *)
  ladder_prev : int option;
      (* truncations of the rung these tables widened; None for a first
         rung and for a truncation-free one, which ends the ladder.  The
         widen ladder continues from it, so continuing the ladder on its
         own output is a no-op. *)
}

(* One in-progress build. *)
type builder = {
  b_problem : P.t;
  b_front : Front.t;
  b_n : int;
  b_m : int;
  b_max_pareto : int;
  b_cap : float;
  b_budget : float;
  b_blocked_k : float array;
  b_skip_end : int array;
      (* per source state of a covered cell: the last destination of the
         skipped range its filters pass at (see [builder_step]) *)
  b_reach : int array;
      (* per source state: the last destination up to which it offered
         every kept cell (see [builder_step]) *)
  mutable b_level : int;  (* next boundary pair to expand; done at m - 1 *)
  mutable b_states : int;
  mutable b_skipped : int;
  mutable b_cells_screened : int;
      (* screened destinations skipped, once per source cell reaching one *)
  mutable b_transitions_skipped : int;
      (* candidates proven dominated in bulk, a subset of [b_skipped] *)
  mutable b_finished : bool;  (* [builder_finish] has counted the tallies *)
}

let cell ~n j i = (j * (n + 1)) + i

exception Break

(* ---- incremental level-stepped build ----------------------------------- *)

(* The phase-A build decomposed into per-boundary-pair steps: a [builder]
   holds one build's front store plus the next level [j] to expand, and
   [builder_step] runs exactly the [for i = 0 to n] body that the
   monolithic loop ran for that [j].  [build_tables] below is the fused
   create / step-to-completion / finish, so it and [Rank_grid]'s
   wavefront (which interleaves the levels of many builds) execute the
   {e same} expansion code on the same state — byte-identical fronts,
   tallies and witnesses by construction, not by reimplementation. *)
let builder ?(max_pareto = 8) problem =
  (* The ladder doubles the width, so a width below 1 would never
     widen. *)
  if max_pareto < 1 then invalid_arg "Rank_dp.builder: max_pareto < 1";
  let n = P.n_bunches problem in
  let m = P.n_pairs problem in
  let width = max_pareto in
  (* Rows 0..m-1 only: see [tables.front]. *)
  let cells = m * (n + 1) in
  let front = Front.create ~cells ~width in
  (* Definition 3: if the WLD does not even fit ignoring delay, the rank
     is 0.  The screen is capacity-only, so the verdict holds for every
     budget a later rebind could ask about.  An
     unassignable instance gets no root state and a build that is
     complete at once: every driver's c = 0 probe then answers
     unassignable from an empty front, and no driver expands a level of
     a no-fit cell.  This is the per-cell screen of [screen_row] at cell
     (0, 0), decided by the exact packing rather than its counting
     bound. *)
  let fits = GF.fits problem (GF.context ~from_bunch:0 ~top_pair:0 ()) in
  if fits then Front.seed front (cell ~n 0 0) ~area:0.0 ~count:0;
  {
    b_problem = problem;
    b_front = front;
    b_n = n;
    b_m = m;
    b_max_pareto = max_pareto;
    b_cap = P.capacity problem;
    b_budget = P.budget problem;
    (* [P.blocked] depends on the pair, [wires_above], and the state's
       repeater count — not on the interval end — so one fill per
       (pair, start) replaces a boxed call per (state, end). *)
    b_blocked_k = Array.make width 0.0;
    b_skip_end = Array.make width 0;
    b_reach = Array.make width 0;
    b_level = (if fits then 0 else m - 1);
    b_states = 0;
    b_skipped = 0;
    b_cells_screened = 0;
    b_transitions_skipped = 0;
    b_finished = false;
  }

(* Level j fills row j + 1, so the last row the search reads (m - 1) is
   filled by level m - 2: a build has m - 1 levels. *)
let builder_levels b = b.b_m - 1
let complete b = b.b_level >= b.b_m - 1

(* The number of states in the destination slice [dbase, dbase + dlen)
   with area <= [a]: by binary search when [from < 0], else by walking
   forward from [from], which the caller guarantees is the position of
   an earlier candidate with area <= [a] against the unchanged slice.
   Inlined, so [a] stays unboxed without flambda. *)
let[@inline] position (f_area : float array) ~dbase ~dlen ~from a =
  if from >= 0 then begin
    let p = ref from in
    while !p < dlen && f_area.(dbase + !p) <= a do
      incr p
    done;
    !p
  end
  else begin
    let lo = ref 0 and hi = ref dlen in
    while !hi > !lo do
      let mid = (!lo + !hi) / 2 in
      if f_area.(dbase + mid) <= a then lo := mid + 1 else hi := mid
    done;
    !lo
  end

(* The per-cell Definition-3 screen over row [row]: cell [(row, i)] is
   screened when bunches [i..n) cannot fit on pairs [row..m) even with
   no repeater above.  Its soundness and its closure under the
   transitions below (a screened cell only ever sends candidates to
   screened cells, so no kept cell's candidate stream changes) are
   argued at [builder] in the interface.  Returns the mask,
   [next_kept]: [next_kept.(i)] is the first kept cell [>= i], [n + 1]
   when none is left, so the transition loop can jump a run of screened
   destinations, and [kept_before]: [kept_before.(i)] is the number of
   kept cells [< i], so a range skip counts its kept cells in O(1). *)
let screen_row problem ~n ~row =
  let screened =
    Array.init (n + 1) (fun i ->
        let w = P.wires_before problem i in
        GF.fast_reject problem
          (GF.context ~wires_above_top:w ~wires_above_below:w ~from_bunch:i
             ~top_pair:row ()))
  in
  let next_kept = Array.make (n + 2) (n + 1) in
  for i = n downto 0 do
    next_kept.(i) <- (if screened.(i) then next_kept.(i + 1) else i)
  done;
  let kept_before = Array.make (n + 2) 0 in
  for i = 0 to n do
    kept_before.(i + 1) <- (kept_before.(i) + if screened.(i) then 0 else 1)
  done;
  (screened, next_kept, kept_before)

(* Does the transition from cell (j, i) to destination [i2 > i] end the
   transition loop?  The meeting interval [i, i2) must be feasible on
   pair j, within the budget on top of the source's cheapest state, and
   within the pair's routing capacity.  Each test is monotone in [i2]
   (see [builder] in the interface), so once one holds it holds for
   every larger [i2]. *)
let[@inline] breaks problem ~j ~i ~min_area ~budget ~cap i2 =
  (not (P.meeting_feasible problem ~pair:j ~lo:i ~hi:i2))
  || min_area +. P.meeting_area problem ~pair:j ~lo:i ~hi:i2 > budget
  || P.interval_area problem ~pair:j ~lo:i ~hi:i2 > cap

(* Does the state of area [a] and blockage [blocked] in cell (j, i) pass
   the per-state budget and capacity filters at destination [i2]?  The
   same float operations as the transition loop's own test, and monotone
   in [i2] for the reasons [breaks] is: once it fails it fails for every
   larger [i2]. *)
let[@inline] passes problem ~j ~i ~budget ~cap ~a ~blocked i2 =
  a +. P.meeting_area problem ~pair:j ~lo:i ~hi:i2 <= budget
  && P.interval_area problem ~pair:j ~lo:i ~hi:i2 +. blocked <= cap

(* The first [x] in [(lo, hi]] at which [fails x] holds, by bisection:
   [fails] is monotone in [x] and holds at [hi], and [lo] is taken to
   pass. *)
let first_failing ~lo ~hi fails =
  let lo = ref lo and hi = ref hi in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if fails mid then hi := mid else lo := mid
  done;
  !hi

(* The range skip's rounding slack, a power of two (see below). *)
let slack = 16.0 *. epsilon_float

(* The range skip.  Write R(i, d) and C(i, d) for [meeting_area] and
   [meeting_count] on pair j, and R for R(0, n).  A state (a, c) of
   source cell (j, i) offers destination d the candidate
   (a +. R(i, d), c + C(i, d)).  Its key is (a -. R(0, i), c - C(0, i)).
   As R(0, 0) = 0, in exact arithmetic the candidates of two states of
   one row at a common destination differ by the difference of their
   keys.

   The row's champion is one state (a', c') of an earlier cell (j, i'),
   with keys (ka', kc') and candidate X at d; let Y be the candidate of
   a state (a, c) of cell (j, i) with keys (ka, kc).  If kc' <= kc and
   ka -. ka' > slack *. (a +. a' +. 2R), then at every d > i X has a
   strictly smaller area than Y and no larger count (counts are exact
   integers).  Proof, with u = epsilon_float / 2 and S = a + a' + 2R:
   every operand is finite and non-negative and the prefix table behind
   R(., .) is non-decreasing, so every R(., .) is at most R, and each
   rounded sum or difference errs by at most u times its operands'
   magnitudes.  So the computed keys are off by at most u (a + R) and
   u (a' + R), and Y's area by u (a + 2R) + u^2 R (X's likewise with
   a'), which gives area Y - area X >= (ka - ka') - 4 u S for the
   computed keys.  Their computed difference is within a factor
   (1 + u) of it, the computed S is at least S (1 - u)^2, and [slack] =
   32 u is a power of two, so the product is exact unless subnormal.
   Then the test gives ka - ka' > 31 u S, so area Y - area X > 27 u S,
   and S > 0 since the test fails when everything is 0.  A subnormal
   product is off by at most 2^-1075, under u S / 2 once S >= 2^-1021;
   below that every value involved is a multiple of 2^-1074 under
   2^-1021 in magnitude, so every sum and difference is exact and
   area Y - area X = ka - ka' > 0.

   A state's reach is the last destination up to which it offered every
   kept cell of the row below.  So once the champion has offered a kept
   d, the destination's front holds a state dominating X: the offered
   candidate itself, or what dropped it.  While the build has truncated
   nothing, a front state leaves only for one that dominates it, so a
   dominator of X, and so of Y, is still there when Y would be offered,
   and the pre-check would drop Y.  So every candidate the state would
   offer at a kept cell of (i, min(reach', own reach)] is counted as
   the walk counts it, one insert and one dominated drop, without being
   placed.  Once anything truncates, every cell is walked.  (The guard is
   read before the cell's own empty-interval offer, which can truncate
   only destination i, outside the range.)

   The skip needs the [Break] tests and the per-state filters to be
   monotone in d, and nothing else.  Where this cell's [Break] comes
   before the champion's reach, the range stops before it; a state
   whose filters fail at the range's end is bisected to its own last
   passing destination.  Only when every state of the cell is covered
   does the loop jump the range: each state's kept cells in it are
   counted from the row's [kept_before], its screened cells onto
   [cells_screened], and the walk goes on after it.  Any other cell is
   walked as before.  After each cell, a state whose reach passes the
   champion's becomes the champion. *)

(* Expand one boundary-pair level.  Returns [true] while more levels
   remain.  The step touches only this builder's own state (front,
   tallies), so independent builders may step on different domains —
   provided each individual builder's steps are externally ordered (the
   wavefront driver's per-level barrier). *)
let builder_step b =
  if complete b then false
  else begin
    let j = b.b_level in
    let problem = b.b_problem in
    let front = b.b_front in
    let n = b.b_n in
    let cap = b.b_cap in
    let budget = b.b_budget in
    let blocked_k = b.b_blocked_k in
    let skip_end = b.b_skip_end and reach = b.b_reach in
    let screened, next_kept, kept_before = screen_row problem ~n ~row:(j + 1) in
    (* Kept cells of the row below in (lo, hi]. *)
    let kept lo hi = kept_before.(hi + 1) - kept_before.(lo + 1) in
    (* Raw views into the front's planes, for the inlined dominance
       pre-check below.  Without flambda every [Front.insert] call boxes
       its float [~area] argument, and most candidates (95.8% on the
       slow cross cells) are dominated — deciding them here first skips
       the call (and its allocation) on that path.  The atomics stay
       byte-identical: each skip would have counted as one insert and one
       dominated drop, so both are added back at the flush.

       The pre-check walks each translated source chain forward instead
       of placing every candidate by its own binary search.  For one
       (source cell, destination) the candidates are the source front
       shifted by a fixed (d_area, d_count); source areas strictly
       ascend and float addition is monotone, so candidate areas never
       decrease, and neither does their [position].  The first
       candidate is placed by binary search, later ones by advancing
       [p].  A [Front.insert] reshapes the destination, so [p] resets to
       -1 and the next candidate is placed by binary search again.
       Every position is the one the binary search would return, so
       every decision is unchanged.

       An insert into an empty cell hands the cell its slice and may
       move the planes, so after every [Front.insert] the views and the
       destination's base are read again.  Bases of non-empty cells
       never move, so [sbase] stays valid. *)
    let f_area = ref (Front.raw_area front) in
    let f_count = ref (Front.raw_count front) in
    let f_len = Front.raw_len front in
    (* The row's champion: keys, area and reach ([-1]: none yet). *)
    let two_r_n = 2.0 *. P.meeting_area problem ~pair:j ~lo:0 ~hi:n in
    let champ_reach = ref (-1) and champ_area = ref 0.0 in
    let champ_key_a = ref 0.0 and champ_key_c = ref 0 in
    for i = 0 to n do
      let src = cell ~n j i in
      let len = Front.length front src in
      if len > 0 then begin
        let sbase = Front.base front src in
        b.b_states <- b.b_states + len;
        let wires_above = P.wires_before problem i in
        let min_area = Front.min_area front src in
        for k = 0 to len - 1 do
          blocked_k.(k) <-
            P.blocked problem ~pair:j ~wires_above
              ~reps_above:!f_count.(sbase + k)
        done;
        let r_i = P.meeting_area problem ~pair:j ~lo:0 ~hi:i in
        let c_i = P.meeting_count problem ~pair:j ~lo:0 ~hi:i in
        (* Each state's [skip_end] when the whole cell is covered; the
           loop then goes on after [jump]. *)
        let jump =
          let r = !champ_reach in
          if r <= i || Front.truncations front > 0 then i
          else begin
            (* [e]: the champion's reach, or the last destination before
               this cell's [Break] if that comes first. *)
            let e =
              if not (breaks problem ~j ~i ~min_area ~budget ~cap r) then r
              else
                first_failing ~lo:i ~hi:r
                  (breaks problem ~j ~i ~min_area ~budget ~cap)
                - 1
            in
            let k = ref 0 in
            while
              e > i
              && !k < len
              &&
              let a = !f_area.(sbase + !k) in
              !f_count.(sbase + !k) - c_i >= !champ_key_c
              && a -. r_i -. !champ_key_a
                 > slack *. (a +. !champ_area +. two_r_n)
            do
              let a = !f_area.(sbase + !k) and blocked = blocked_k.(!k) in
              skip_end.(!k) <-
                (if passes problem ~j ~i ~budget ~cap ~a ~blocked e then e
                 else
                   first_failing ~lo:i ~hi:e (fun d ->
                       not (passes problem ~j ~i ~budget ~cap ~a ~blocked d))
                   - 1);
              incr k
            done;
            if !k = len then e else i
          end
        in
        if jump > i then Array.blit skip_end 0 reach 0 len
        else Array.fill reach 0 len i;
        (try
          (* Empty interval: pair j left unused. *)
          if screened.(i) then b.b_cells_screened <- b.b_cells_screened + 1
          else begin
            let dst = cell ~n (j + 1) i in
            let dbase = ref (Front.base front dst) in
            let p = ref (-1) in
            for k = 0 to len - 1 do
              let a = !f_area.(sbase + k) in
              let c = !f_count.(sbase + k) in
              p := position !f_area ~dbase:!dbase ~dlen:f_len.(dst) ~from:!p a;
              if !p > 0 && !f_count.(!dbase + !p - 1) <= c then
                b.b_skipped <- b.b_skipped + 1
              else begin
                Front.insert front dst ~area:a ~count:c ~split:i
                  ~parent:(Front.state front src k);
                f_area := Front.raw_area front;
                f_count := Front.raw_count front;
                dbase := Front.base front dst;
                p := -1
              end
            done
          end;
          if jump > i then begin
            b.b_cells_screened <-
              b.b_cells_screened + (jump - i - kept i jump);
            for k = 0 to len - 1 do
              let s = kept i skip_end.(k) in
              b.b_skipped <- b.b_skipped + s;
              b.b_transitions_skipped <- b.b_transitions_skipped + s
            done
          end;
          let i2 = ref (jump + 1) in
          while !i2 <= n do
            let d = !i2 in
            if breaks problem ~j ~i ~min_area ~budget ~cap d then raise Break;
            (* A screened destination is skipped only after the [Break]
               tests, so the loop ends where it always has.  [d] starts
               a run of screened destinations that ends at the next kept
               cell [t].  [d] passed the [Break] tests, and they are
               monotone in [i2], so if [t] passes them too, so does every
               cell of the run: the run is counted and the loop goes on
               at [t].  Otherwise the first breaking destination is found
               by bisection and the cells before it are counted: the
               tally a walk one destination at a time would make. *)
            if screened.(d) then begin
              let t = next_kept.(d) in
              if t <= n && not (breaks problem ~j ~i ~min_area ~budget ~cap t)
              then begin
                b.b_cells_screened <- b.b_cells_screened + (t - d);
                i2 := t
              end
              else begin
                (* [d] passes the tests; [t] fails them or is past the
                   row. *)
                let x =
                  first_failing ~lo:d ~hi:t
                    (breaks problem ~j ~i ~min_area ~budget ~cap)
                in
                b.b_cells_screened <- b.b_cells_screened + (x - d);
                raise Break
              end
            end
            else begin
              let d_area = P.meeting_area problem ~pair:j ~lo:i ~hi:d in
              let routing = P.interval_area problem ~pair:j ~lo:i ~hi:d in
              let d_count = P.meeting_count problem ~pair:j ~lo:i ~hi:d in
              let dst = cell ~n (j + 1) d in
              let dbase = ref (Front.base front dst) in
              let p = ref (-1) in
              for k = 0 to len - 1 do
                let a = !f_area.(sbase + k) +. d_area in
                let c = !f_count.(sbase + k) + d_count in
                if a <= budget && routing +. blocked_k.(k) <= cap then begin
                  reach.(k) <- d;
                  p :=
                    position !f_area ~dbase:!dbase ~dlen:f_len.(dst) ~from:!p a;
                  if !p > 0 && !f_count.(!dbase + !p - 1) <= c then
                    b.b_skipped <- b.b_skipped + 1
                  else begin
                    Front.insert front dst ~area:a ~count:c ~split:d
                      ~parent:(Front.state front src k);
                    f_area := Front.raw_area front;
                    f_count := Front.raw_count front;
                    dbase := Front.base front dst;
                    p := -1
                  end
                end
              done;
              i2 := d + 1
            end
          done
        with Break -> ());
        (* A state of this cell that reaches past the champion replaces
           it for the cells after. *)
        for k = 0 to len - 1 do
          if reach.(k) > !champ_reach then begin
            let a = !f_area.(sbase + k) in
            champ_reach := reach.(k);
            champ_area := a;
            champ_key_a := a -. r_i;
            champ_key_c := !f_count.(sbase + k) - c_i
          end
        done
      end
    done;
    b.b_level <- j + 1;
    not (complete b)
  end

(* Flush the tallies and seal the build, once per builder: a second call
   would count them twice. *)
let builder_finish b =
  if not (complete b) then
    invalid_arg "Rank_dp.builder_finish: build not complete";
  if b.b_finished then invalid_arg "Rank_dp.builder_finish: already finished";
  b.b_finished <- true;
  let front = b.b_front in
  Ir_obs.add stat_states b.b_states;
  Ir_obs.add stat_screened b.b_cells_screened;
  Ir_obs.add stat_transitions_skipped b.b_transitions_skipped;
  Ir_obs.add stat_inserts (Front.inserts front + b.b_skipped);
  Ir_obs.add stat_dominated (Front.dominated front + b.b_skipped);
  Ir_obs.add stat_truncations (Front.truncations front);
  Ir_obs.set_max gauge_arena (Front.arena_states front);
  Ir_obs.set_max gauge_slices (Front.slices front);
  {
    problem = b.b_problem;
    front;
    n = b.b_n;
    m = b.b_m;
    max_pareto = b.b_max_pareto;
    truncations = Front.truncations front;
    ladder_prev = None;
  }

(* A no-op: the per-level barrier hook of the removed pruning layer,
   kept so perfbench's traced replay still compiles.  Nothing in the
   library calls it. *)
let builder_advance_incumbent (_ : builder) = ()

let build_tables ?max_pareto problem =
  Ir_obs.time span_build @@ fun () ->
  let b = builder ?max_pareto problem in
  while builder_step b do
    ()
  done;
  builder_finish b

let table_truncations tables = tables.truncations

let front t = t.front

(* ---- table codec ------------------------------------------------------- *)

(* The blob holds what a search reads and nothing else: the dimensions,
   each cell's length, and per live state its area bits, count, split
   and parent.  The problem is not in it: the caller rebuilds it from
   the query fingerprint and [decode_tables] checks the dimensions
   against it.  Every field is fixed-width little-endian, and the
   payload is prefixed with its own MD5 (the last line of defense; a
   store layering its own framing, {!Ir_serve.Snapshot}, checksums the
   whole blob too).  States are numbered canonically — cells in order,
   each cell area-ascending — and a parent is written as its canonical
   number.  A parent lives in the row above its child, so it always
   precedes it, and the arena ids of the build (which depend on its
   eviction history) never reach the bytes. *)

type decode_error =
  | Bad_digest
  | Truncated
  | Geometry
  | Bad_width
  | Bad_truncations
  | Bad_area
  | Bad_count
  | Bad_split
  | Bad_parent
  | Trailing_bytes

let decode_errors =
  [
    Bad_digest; Truncated; Geometry; Bad_width; Bad_truncations; Bad_area;
    Bad_count; Bad_split; Bad_parent; Trailing_bytes;
  ]

let decode_error_name = function
  | Bad_digest -> "bad_digest"
  | Truncated -> "truncated"
  | Geometry -> "geometry"
  | Bad_width -> "bad_width"
  | Bad_truncations -> "bad_truncations"
  | Bad_area -> "bad_area"
  | Bad_count -> "bad_count"
  | Bad_split -> "bad_split"
  | Bad_parent -> "bad_parent"
  | Trailing_bytes -> "trailing_bytes"

let digest_len = 16

(* n, m, cells, max_pareto, truncations: one int64 each. *)
let header_len = 5 * 8

(* One int32 length per cell. *)
let length_bytes = 4

(* Area bits and count (int64), split and parent (int32). *)
let state_bytes = 24

let encode_tables t =
  let front = t.front in
  let cells = Front.cells front in
  let states = ref 0 and max_id = ref (-1) in
  for c = 0 to cells - 1 do
    let len = Front.length front c in
    states := !states + len;
    for k = 0 to len - 1 do
      max_id := max !max_id (Front.state front c k)
    done
  done;
  let payload_len =
    header_len + (cells * length_bytes) + (!states * state_bytes)
  in
  let b = Bytes.create (digest_len + payload_len) in
  let pos = ref digest_len in
  let int v =
    Bytes.set_int64_le b !pos (Int64.of_int v);
    pos := !pos + 8
  in
  (* Lengths, splits and state numbers are below the store's slot count,
     so they fit an int32 for any store that fits in memory. *)
  let int32 v =
    Bytes.set_int32_le b !pos (Int32.of_int v);
    pos := !pos + 4
  in
  List.iter int [ t.n; t.m; cells; t.max_pareto; t.truncations ];
  for c = 0 to cells - 1 do
    int32 (Front.length front c)
  done;
  (* Arena id -> canonical number, for the parents (every parent is a
     live state, so its id is at most [max_id]). *)
  let number = Array.make (!max_id + 1) (-1) in
  let s = ref 0 in
  for c = 0 to cells - 1 do
    for k = 0 to Front.length front c - 1 do
      let id = Front.state front c k in
      number.(id) <- !s;
      Bytes.set_int64_le b !pos (Int64.bits_of_float (Front.area front c k));
      pos := !pos + 8;
      int (Front.count front c k);
      int32 (Front.split front id);
      let p = Front.parent front id in
      int32 (if p < 0 then -1 else number.(p));
      incr s
    done
  done;
  Bytes.blit_string (Digest.subbytes b digest_len payload_len) 0 b 0 digest_len;
  Bytes.unsafe_to_string b

let decode_tables problem blob =
  let n = P.n_bunches problem and m = P.n_pairs problem in
  let blen = String.length blob in
  let exception Invalid of decode_error in
  let fail e = raise_notrace (Invalid e) in
  let pos = ref digest_len in
  let need k = if blen - !pos < k then fail Truncated in
  let int64 () =
    let v = String.get_int64_le blob !pos in
    pos := !pos + 8;
    v
  in
  (* An int64 field as an int, failing with [e] when it does not fit
     one, so that every accepted blob re-encodes to itself. *)
  let int e =
    let v = int64 () in
    if
      Int64.compare v (Int64.of_int min_int) < 0
      || Int64.compare v (Int64.of_int max_int) > 0
    then fail e
    else Int64.to_int v
  in
  let int32 () =
    let v = Int32.to_int (String.get_int32_le blob !pos) in
    pos := !pos + 4;
    v
  in
  try
    if
      blen < digest_len
      || not
           (String.equal
              (String.sub blob 0 digest_len)
              (Digest.substring blob digest_len (blen - digest_len)))
    then fail Bad_digest;
    need header_len;
    let n' = int Geometry in
    let m' = int Geometry in
    let cells = int Geometry in
    let max_pareto = int Bad_width in
    let truncations = int Bad_truncations in
    (* The cell count is what tells a front with the unread row [m] (a
       build from before rows stopped at [m - 1]) from this layout. *)
    if n' <> n || m' <> m || cells <> m * (n + 1) then fail Geometry;
    if max_pareto < 1 then fail Bad_width;
    if truncations < 0 then fail Bad_truncations;
    need (cells * length_bytes);
    let len =
      Array.init cells (fun _ ->
          let l = int32 () in
          if l < 0 || l > max_pareto then fail Bad_width;
          l)
    in
    let states = Array.fold_left ( + ) 0 len in
    let rest = blen - !pos in
    if rest < states * state_bytes then fail Truncated;
    if rest > states * state_bytes then fail Trailing_bytes;
    let area = Array.make states 0.0 and count = Array.make states 0 in
    let split = Array.make states 0 and parent = Array.make states 0 in
    (* The bunch index of each state's cell: a parent's is at most its
       child's, the interval its pair holds being [parent's, child's). *)
    let bunch = Array.make states 0 in
    let s = ref 0 and above = ref 0 in
    for j = 0 to m - 1 do
      (* Row [j - 1] holds states [above, row). *)
      let row = !s in
      for i = 0 to n do
        for k = 0 to len.((j * (n + 1)) + i) - 1 do
          let id = !s in
          let a = Int64.float_of_bits (int64 ()) in
          if not (Float.is_finite a && a >= 0.0 && (k = 0 || a > area.(id - 1)))
          then fail Bad_area;
          let c = int Bad_count in
          if c < 0 || (k > 0 && c >= count.(id - 1)) then fail Bad_count;
          let sp = int32 () in
          let pa = int32 () in
          if j = 0 then begin
            (* Row 0 holds roots only, in cell (0, 0): no interval above
               them, no parent. *)
            if sp <> -1 then fail Bad_split;
            if i > 0 || pa <> -1 then fail Bad_parent
          end
          else begin
            if sp <> i then fail Bad_split;
            if pa < !above || pa >= row || bunch.(pa) > i then fail Bad_parent
          end;
          area.(id) <- a;
          count.(id) <- c;
          split.(id) <- sp;
          parent.(id) <- pa;
          bunch.(id) <- i;
          incr s
        done
      done;
      above := row
    done;
    (* Restored tables are only searched (a widen retry rebuilds from
       the problem), so the store gets one slice per non-empty cell, as
       wide as the longest cell rather than [max_pareto], which the blob
       states but does not fill: the planes hold the live states and
       little else. *)
    let width = Array.fold_left max 1 len in
    let front = Front.restore ~width ~len ~area ~count ~split ~parent in
    Ok { problem; front; n; m; max_pareto; truncations; ladder_prev = None }
  with Invalid e -> Error e

(* Can the top c bunches all meet their targets in some complete
   assignment?  Try every boundary pair j and every phase-A state of
   cell (j, i): bunches [i..c) meet on pair j, the rest is capacity-only.
   Returns the witness state on success.

   The budget is read from [tables.problem] here, at query time — which
   is what lets [rebudget] reuse one build across budgets: a state
   within a smaller budget is accepted or rejected per probe, and states
   over it are filtered by the [e.area + m_area > budget] check (prefix
   areas only grow along a chain, so no over-budget prefix can lead to a
   within-budget witness). *)
let feasible_witness ?memo ?gf tables c =
  let { problem; front; n; m; _ } = tables in
  let cap = P.capacity problem in
  let budget = P.budget problem in
  let wires_c = P.wires_before problem c in
  (* With a memo, the greedy-fill suffix check goes through the
     [Suffix_fit] frontier cache (byte-identical verdicts, fewer oracle
     packings); without one, straight to the oracle, which resumes at
     the top pair from the [gf] arena while the fields the pairs below
     read repeat (see [Greedy_fill.fits]).  The memo's oracle
     runs against the problem it was created for — sound here because a
     memo is only ever shared within a budget-rebound family and the
     suffix check never reads the budget (see [rebudget]). *)
  let suffix_fits ~top_pair_used ~wires_above_top ~reps_above_top
      ~reps_above_below ~top_pair =
    match memo with
    | Some sf ->
        Ir_assign.Suffix_fit.fits sf ~from_bunch:c ~top_pair ~top_pair_used
          ~wires_above_top ~reps_above_top ~wires_above_below:wires_c
          ~reps_above_below
    | None ->
        GF.fits ?scratch:gf problem
          (GF.context ~top_pair_used ~wires_above_top ~reps_above_top
             ~wires_above_below:wires_c ~reps_above_below ~from_bunch:c
             ~top_pair ())
  in
  let probes = ref 0 in
  let exception Found of witness in
  let result =
    try
      for j = 0 to m - 1 do
        for i = 0 to c do
          let src = cell ~n j i in
          let len = Front.length front src in
          if len > 0 then begin
            (* Probes are counted per state even when the whole cell is
               rejected below, matching the historical per-state counter. *)
            probes := !probes + len;
            (* Everything determined by (j, i, c) alone is hoisted out of
               the per-state loop: the meeting interval's feasibility and
               cost, its routing area, and the wires above. *)
            if P.meeting_feasible problem ~pair:j ~lo:i ~hi:c then begin
              let m_area = P.meeting_area problem ~pair:j ~lo:i ~hi:c in
              let m_count = P.meeting_count problem ~pair:j ~lo:i ~hi:c in
              let used_j = P.interval_area problem ~pair:j ~lo:i ~hi:c in
              let wires_i = P.wires_before problem i in
              for k = 0 to len - 1 do
                let area = Front.area front src k in
                let count = Front.count front src k in
                if area +. m_area <= budget then begin
                  let blocked_j =
                    P.blocked problem ~pair:j ~wires_above:wires_i
                      ~reps_above:count
                  in
                  if
                    used_j +. blocked_j <= cap
                    && suffix_fits ~top_pair_used:used_j
                         ~wires_above_top:wires_i ~reps_above_top:count
                         ~reps_above_below:(count + m_count) ~top_pair:j
                  then
                    raise
                      (Found
                         {
                           boundary_pair = j;
                           prefix_splits =
                             Front.splits front (Front.state front src k);
                           meet_lo = i;
                           meet_hi = c;
                           reps_above = count;
                           reps_total = count + m_count;
                         })
                end
              done
            end
          end
        done
      done;
      None
    with Found w -> Some w
  in
  Ir_obs.add stat_witness_probes !probes;
  result

let outcome_of_boundary problem ~assignable ~exact c =
  Outcome.v ~exact
    ~rank_wires:(P.wires_before problem c)
    ~total_wires:(P.total_wires problem)
    ~assignable ~boundary_bunch:c ()

(* Monotonicity of [feasible] in the boundary c — why the binary search
   below is exact.

   Claim: if the top c bunches can all meet their targets in some complete
   assignment (c > 0), so can the top c - 1.

   Take a witness for c: prefix splits on pairs [0..j), meeting interval
   [i, c) on the boundary pair j (repeater area a, count r on it), and a
   greedy-fill certificate (Definition 3 / Lemma 1) packing bunches
   [c..n) on pairs [j..m) below it.  Shrink the meeting interval to
   [i, c-1): bunch c-1 gives up its repeaters, so repeater area and count
   only decrease — the budget constraint stays satisfied, and the via
   blockage repeaters charge on every pair below pair j only shrinks.
   Bunch c-1 then joins the capacity-only suffix: the area it occupied on
   pair j is exactly freed, so the packing that places bunch c-1 back on
   pair j in its old position and keeps every other suffix wire where the
   certificate for c put it is feasible — every pair's routing area is
   unchanged and its blockage is no larger (wires above each pair are the
   same wires; repeaters above are fewer).  Greedy_fill packs bottom-up
   shortest-first, which Lemma 1 shows dominates any particular feasible
   packing, so [GF.fits] accepts the suffix from c-1.  Hence the witness
   survives with boundary c-1, and {exists witness for c} is a downward-
   closed property of c: binary search over it is exact.  (The
   [~exhaustive] scan below and the randomized property test in
   [test_core.ml] cross-check this equivalence.) *)

(* Nominal probe cost of a cold (hint-less, fan-less) search: the first
   probe at [n] plus one bisection probe per halving of [0, n].  The real
   cold path can differ by one probe according to which half each odd
   split descends into; this deterministic figure is the baseline the
   [hint_saved_probes] counter is measured against. *)
let cold_probe_cost n =
  let steps = ref 1 and w = ref n in
  while !w > 1 do
    incr steps;
    w := !w - (!w / 2)
  done;
  !steps

let search_tables ?(exhaustive = false) ?memo ?hint ?(probe_fan = 1) tables =
  Ir_obs.time span_search @@ fun () ->
  Scratch.with_arena @@ fun gf ->
  let problem = tables.problem in
  let n = tables.n in
  let exact = tables.truncations = 0 in
  let probes = ref 0 in
  let result =
    match feasible_witness ?memo ~gf tables 0 with
    | None ->
        ( Outcome.unassignable ~exact ~total_wires:(P.total_wires problem) (),
          None )
    | Some w0 ->
        let best = ref 0 and best_w = ref w0 in
        let try_c c =
          incr probes;
          match feasible_witness ?memo ~gf tables c with
          | Some w ->
              best := c;
              best_w := w;
              true
          | None -> false
        in
        (* Invariant threaded through every strategy below: [!best] is a
           boundary that produced a witness (feasible unconditionally),
           [hi] when < n + 1 was probed infeasible.  Monotonicity (proof
           above) makes the final [best] also maximal.  [lo] starts at
           the c = 0 probe, and no strategy probes at or below it. *)
        let lo = ref 0 and hi = ref (n + 1) in
        let bisect () =
          while !hi - !lo > 1 do
            let mid = !lo + ((!hi - !lo) / 2) in
            if try_c mid then lo := mid else hi := mid
          done
        in
        (* Speculative multi-section rounds for an otherwise idle pool:
           split [lo, hi] at [fan] interior points and evaluate them all
           concurrently — every probe runs to completion (no cancellation),
           so probe and greedy-fill counter totals depend only on the
           configured fan, never on scheduling.  The round keeps the
           largest feasible probe and smallest infeasible one; with [fan]
           probes the interval shrinks by a factor [fan + 1] per round, so
           wall time drops to log_(fan+1) while total probe work grows —
           a trade only worth making when the extra domains are idle
           (Cross_node's starved-pool searches).  Probes bypass the memo:
           a [Suffix_fit.t] is single-domain state. *)
        let fan_rounds () =
          while !hi - !lo > 1 do
            let width = !hi - !lo in
            let k = min probe_fan (width - 1) in
            let pts = Array.make k 0 in
            let prev = ref !lo in
            for t = 0 to k - 1 do
              let pos = !lo + (width * (t + 1) / (k + 1)) in
              let pos = max (!prev + 1) pos in
              pts.(t) <- pos;
              prev := pos
            done;
            Ir_obs.incr stat_fan_rounds;
            probes := !probes + k;
            let answers =
              if k = 1 then
                [| (pts.(0), feasible_witness ~gf tables pts.(0)) |]
              else begin
                (* Plain [Domain.spawn] per probe rather than the Ir_exec
                   pool: a search may itself be running inside a pool
                   worker, and a nested pool run would clobber
                   [last_pool_stats] for the driver that launched us.
                   Spawned probes run without an arena — their domain
                   dies at the join, so its packing state could never be
                   resumed; only the caller-domain probe gets the arena. *)
                let spawned =
                  Array.init (k - 1) (fun t ->
                      let c = pts.(t + 1) in
                      Domain.spawn (fun () -> (c, feasible_witness tables c)))
                in
                let first = (pts.(0), feasible_witness ~gf tables pts.(0)) in
                Array.append [| first |] (Array.map Domain.join spawned)
              end
            in
            (* Deterministic sequential fold of the round's verdicts. *)
            Array.iter
              (fun (c, w) ->
                match w with
                | Some w when c > !best ->
                    best := c;
                    best_w := w;
                    lo := c
                | Some _ -> ()
                | None -> if c < !hi then hi := c)
              answers
          done
        in
        if exhaustive then begin
          let c = ref n in
          while !c > 0 && not (try_c !c) do
            decr c
          done
        end
        else begin
          (match hint with
          | Some h when n > 0 ->
              (* Warm start: bracket the boundary by galloping away from
                 the hint.  Any hint value is sound — the bracket is
                 established by probes, the hint only chooses where they
                 land — so stale or out-of-range hints cost extra probes,
                 never a wrong rank.  Clamped to [1, n]: c = 0 is
                 already probed. *)
              Ir_obs.incr stat_hinted;
              let h = min (max h 1) n in
              if try_c h then begin
                lo := h;
                let step = ref 1 in
                (try
                   while !lo < n do
                     let c = min n (!lo + !step) in
                     if try_c c then lo := c else begin
                       hi := c;
                       raise Break
                     end;
                     step := 2 * !step
                   done
                 with Break -> ())
              end
              else begin
                hi := h;
                let step = ref 1 in
                (try
                   while !hi > 1 do
                     let c = max 1 (!hi - !step) in
                     if try_c c then begin
                       lo := c;
                       raise Break
                     end
                     else hi := c;
                     step := 2 * !step
                   done
                 with Break -> ())
              end
          | _ ->
              (* Cold: probe [n] first (the historical path — also what
                 the [cold_probe_cost] baseline models).  An empty WLD
                 (n = 0) needs no probe at all. *)
              if n > 0 then if try_c n then lo := n else hi := n);
          if !hi - !lo > 1 then
            if probe_fan > 1 then fan_rounds () else bisect ();
          if hint <> None then
            Ir_obs.add stat_hint_saved (max 0 (cold_probe_cost n - !probes))
        end;
        (outcome_of_boundary problem ~assignable:true ~exact !best,
         Some !best_w)
  in
  Ir_obs.add stat_search_probes !probes;
  result

let default_widen_cap = 128

(* If the Pareto front overflowed, the tables may have lost the state
   behind the true optimum — silently returning a lower bound while
   claiming exactness was the bug this retry fixes.  Double [max_pareto]
   while the overflow looks eliminable: the first retry is always taken,
   and each further doubling requires the previous one to have at least
   halved the truncation count.  Small overflows (a front of 9-20 states
   at width 8) converge to zero in one or two doublings; a genuinely
   exponential front (millions of truncations that barely move when the
   width doubles) would otherwise multiply the build cost by the whole
   ladder and still come back truncated, so it is abandoned after one
   probe and reported as a lower bound ([exact = false]) — callers can
   pass a larger [max_pareto] explicitly.  Build cost grows superlinearly
   with the width, which is why the ladder is gated on convergence rather
   than run to [widen_cap] unconditionally. *)
let rec widen_tables ?(widen_on_overflow = true)
    ?(widen_cap = default_widen_cap) tables =
  let t = tables.truncations in
  let mp = tables.max_pareto in
  let converging =
    match tables.ladder_prev with None -> true | Some p -> 2 * t <= p
  in
  if t > 0 && widen_on_overflow && mp < widen_cap && converging then begin
    Ir_obs.incr stat_widen_retries;
    let next =
      build_tables ~max_pareto:(min widen_cap (2 * mp)) tables.problem
    in
    widen_tables ~widen_on_overflow ~widen_cap
      { next with ladder_prev = Some t }
  end
  else tables

(* The widen ladder continued from a first rung built elsewhere, then the
   boundary search — the search half of {!Rank_grid.eval_batch}. *)
let search_with_tables ?widen_on_overflow ?widen_cap ?hint ?probe_fan tables =
  search_tables ?hint ?probe_fan
    (widen_tables ?widen_on_overflow ?widen_cap tables)

(* One build, many budgets.  The repeater budget is re-read from the
   problem at query time (see [feasible_witness]), so tables built at the
   widest budget answer any narrower rebind: a budget prunes only states
   whose (monotone non-decreasing along a chain) prefix area exceeds it,
   and a state within a small budget can only be displaced from a wider
   build's front by a dominator — lower area and count — which is itself
   within that budget and passes every query check the displaced state
   would have (budget, blockage and the greedy-fill suffix are all
   monotone in those coordinates).  Hence, as long as the shared build
   truncates nothing, searching the rebound tables returns exactly what a
   build at the narrower budget would.  A power budget is one more cap on
   the same budget ([P.budget]), so it rebinds the same way.  Callers
   check [table_truncations] first and build per budget otherwise. *)
let rebudget ?fraction ?activity ?power_budget tables =
  let p = tables.problem in
  let p =
    match fraction with None -> p | Some f -> P.with_repeater_fraction p f
  in
  let p = match activity with None -> p | Some a -> P.with_activity p a in
  let p =
    match power_budget with None -> p | Some b -> P.with_power_budget p b
  in
  { tables with problem = p }

(* Repeater area a witness spends, summed as the build accumulated it:
   the meeting intervals of the prefix pairs top-down (empty intervals
   carry the area over unchanged), then the boundary pair's.  This is the
   very sum [feasible_witness] compared with the budget, so the reported
   power [kappa *. area] is within any power budget the witness was
   admitted under. *)
let witness_area problem (w : witness) =
  let total = ref 0.0 in
  let lo = ref 0 in
  List.iteri
    (fun j e ->
      if e > !lo then
        total := !total +. P.meeting_area problem ~pair:j ~lo:!lo ~hi:e;
      lo := e)
    w.prefix_splits;
  if w.meet_hi > w.meet_lo then
    total :=
      !total
      +. P.meeting_area problem ~pair:w.boundary_pair ~lo:w.meet_lo
           ~hi:w.meet_hi;
  !total

let witness_power problem w = P.kappa problem *. witness_area problem w
