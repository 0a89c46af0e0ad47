module P = Ir_assign.Problem
module GF = Ir_assign.Greedy_fill

(* Deterministic like every other counter outside exec/sched/ — the
   pruning layer only reads the incumbent at sequential barriers, so the
   tallies depend on the instances processed, never on scheduling (the
   jobs=1 vs jobs=N identity test covers them). *)
let stat_pruned = Ir_obs.counter "bounds/states_pruned"
let stat_saved = Ir_obs.counter "bounds/oracle_calls_saved"
let stat_incumbent = Ir_obs.counter "bounds/incumbent_updates"
let stat_gated = Ir_obs.counter "bounds/probe_gated"
let note_pruned n = if n > 0 then Ir_obs.add stat_pruned n
let note_saved () = Ir_obs.incr stat_saved
let note_incumbent () = Ir_obs.incr stat_incumbent
let note_gated () = Ir_obs.incr stat_gated

(* The prefix differences below subtract two accumulated float sums; the
   DP accumulates the same physical quantity one meeting interval at a
   time, in a different order.  Both agree to ~n*ulp relative error, so
   shrinking the lower bound by 1e-9 relative keeps it a true lower
   bound with orders of magnitude to spare while costing nothing
   measurable in pruning power. *)
let slack = 1.0 -. 1e-9

type t = { problem : P.t; n : int }

let create problem = { problem; n = P.n_bunches problem }

(* Admissible suffix cost: meeting bunches [i..c) costs at least the
   fractional relaxation prefix difference (Problem.min_rep_area_before),
   whatever contiguous split the DP ends up choosing. *)
let suffix_cost t ~from ~target =
  if target <= from then 0.0
  else
    (P.min_rep_area_before t.problem target
    -. P.min_rep_area_before t.problem from)
    *. slack

let optimistic_boundary t ~budget ~area ~from =
  (* Largest c with area + lb(from -> c) <= budget: the relaxation
     prefix is non-decreasing, so binary search is exact. *)
  let lo = ref from and hi = ref t.n in
  while !hi > !lo do
    let mid = !lo + ((!hi - !lo + 1) / 2) in
    if area +. suffix_cost t ~from ~target:mid <= budget then lo := mid
    else hi := mid - 1
  done;
  !lo

(* thresh.(i): the largest prefix repeater area a column-i state may
   carry and still conceivably reach boundary >= incumbent + 1 within
   [budget].  Written so the comparisons in the DP hot loop degrade
   safely: an unreachable column can have an infinite relaxation prefix
   (making [need] NaN), and NaN thresholds compare false — no pruning —
   which is exactly right for a cell that is empty anyway.  A column
   already past the target needs nothing more, and an incumbent of n
   cannot be beaten at all. *)
let fill_thresholds t ~budget ~incumbent thresh =
  let n = t.n in
  if incumbent < 0 then Array.fill thresh 0 (n + 1) infinity
  else if incumbent >= n then Array.fill thresh 0 (n + 1) neg_infinity
  else
    let c_star = incumbent + 1 in
    for i = 0 to n do
      thresh.(i) <- budget -. suffix_cost t ~from:i ~target:c_star
    done

(* The O(pairs) suffix screen, by construction the exact computation
   [Greedy_fill] itself runs first: a [true] here is a verdict the
   packer was always going to return, answered without touching the
   Suffix_fit memo or the packing loop. *)
let suffix_reject t ctx = GF.fast_reject t.problem ctx

type probe = {
  pb_boundary : int;
  pb_splits : int list;
  pb_pair : int;
  pb_meet_lo : int;
  pb_reps_above : int;
  pb_reps_total : int;
}

let probe_nothing =
  {
    pb_boundary = 0;
    pb_splits = [];
    pb_pair = 0;
    pb_meet_lo = 0;
    pb_reps_above = 0;
    pb_reps_total = 0;
  }

(* Greedy-chain achievable boundary.  Build one explicit DP path: pair
   by pair, extend the met prefix as far as the DP's own expansion
   screens allow (meeting feasibility, cumulative area within [budget],
   interval routing plus blockage within capacity — the same float
   expressions [Rank_dp.builder_step] evaluates, so every prefix of the
   chain is a state the exact DP also builds).  The chain fixes a split
   vector; the largest boundary [c] along it whose remaining suffix one
   packer call certifies is then found by binary search — feasibility of
   (truncate the chain at [c], pack the rest) is downward-closed in [c]
   by the witness-shrinking argument on [Rank_dp.feasible] (the freed
   meeting area exactly re-houses the surrendered bunch).  Because the
   boundary-region bunches dominate the budget on real instances, the
   chain typically lands within a few bunches of the DP optimum, which
   is what gives the incumbent its pruning power from level 0.  On total
   refusal the probe degrades to boundary 0, which is achievable exactly
   when the instance passes the Definition-3 screen — [Rank_dp.builder]
   drops the pruning context of a build that fails it. *)
let chain_probe ?scratch t ~budget ~from_pair ~from_col ~area ~count =
  let p = t.problem in
  let n = t.n in
  let m = P.n_pairs p in
  let cap = P.capacity p in
  let npairs = m - from_pair in
  if npairs <= 0 then None
  else begin
    (* ends.(jj): met prefix after extension pair [from_pair + jj];
       areas/counts.(jj): cumulative repeater cost strictly above it,
       seeded with the start state's own area and count. *)
    let ends = Array.make npairs from_col in
    let areas = Array.make (npairs + 1) area in
    let counts = Array.make (npairs + 1) count in
    let last = ref from_col in
    for jj = 0 to npairs - 1 do
      let j = from_pair + jj in
      let lo_j = !last in
      let wires_lo = P.wires_before p lo_j in
      let blocked_j =
        P.blocked p ~pair:j ~wires_above:wires_lo ~reps_above:counts.(jj)
      in
      let ok c =
        c = lo_j
        || P.meeting_feasible p ~pair:j ~lo:lo_j ~hi:c
           && areas.(jj) +. P.meeting_area p ~pair:j ~lo:lo_j ~hi:c <= budget
           && P.interval_area p ~pair:j ~lo:lo_j ~hi:c +. blocked_j <= cap
      in
      let lo = ref lo_j and hi = ref n in
      while !hi > !lo do
        let mid = !lo + ((!hi - !lo + 1) / 2) in
        if ok mid then lo := mid else hi := mid - 1
      done;
      let e = !lo in
      ends.(jj) <- e;
      if e = lo_j then begin
        areas.(jj + 1) <- areas.(jj);
        counts.(jj + 1) <- counts.(jj)
      end
      else begin
        areas.(jj + 1) <-
          areas.(jj) +. P.meeting_area p ~pair:j ~lo:lo_j ~hi:e;
        counts.(jj + 1) <-
          counts.(jj) + P.meeting_count p ~pair:j ~lo:lo_j ~hi:e
      end;
      last := e
    done;
    (* Truncate the chain at boundary [c]: the boundary pair is the
       first whose meeting reaches [c]; pairs above keep their full
       meetings, pairs below go unused and their capacity serves the
       suffix. *)
    let witness_at c =
      let jj = ref 0 in
      while ends.(!jj) < c do
        incr jj
      done;
      let jj = !jj in
      let lo_j = if jj = 0 then from_col else ends.(jj - 1) in
      let reps_above = counts.(jj) in
      let m_count =
        if c = lo_j then 0
        else P.meeting_count p ~pair:(from_pair + jj) ~lo:lo_j ~hi:c
      in
      (jj, lo_j, reps_above, m_count)
    in
    let feasible_at c =
      let jj, lo_j, reps_above, m_count = witness_at c in
      let j = from_pair + jj in
      let m_area =
        if c = lo_j then 0.0 else P.meeting_area p ~pair:j ~lo:lo_j ~hi:c
      in
      let used_j =
        if c = lo_j then 0.0 else P.interval_area p ~pair:j ~lo:lo_j ~hi:c
      in
      let wires_lo = P.wires_before p lo_j in
      let blocked_j = P.blocked p ~pair:j ~wires_above:wires_lo ~reps_above in
      areas.(jj) +. m_area <= budget
      && used_j +. blocked_j <= cap
      && GF.fits ?scratch p
           (GF.context ~top_pair_used:used_j ~wires_above_top:wires_lo
              ~reps_above_top:reps_above
              ~wires_above_below:(P.wires_before p c)
              ~reps_above_below:(reps_above + m_count) ~from_bunch:c
              ~top_pair:j ())
    in
    let c_max = ends.(npairs - 1) in
    (* Common case first: the full chain's suffix fits — one packer
       call.  Otherwise verify the chain's own start (the degenerate
       empty extension) and bisect; feasibility along the chain is
       downward-closed (witness-shrinking argument in Rank_dp). *)
    let best =
      if feasible_at c_max then Some c_max
      else if c_max = from_col || not (feasible_at from_col) then None
      else begin
        let lo = ref from_col and hi = ref (c_max - 1) in
        while !hi > !lo do
          let mid = !lo + ((!hi - !lo + 1) / 2) in
          if feasible_at mid then lo := mid else hi := mid - 1
        done;
        Some !lo
      end
    in
    match best with
    | None -> None
    | Some c ->
        let jj, lo_j, reps_above, m_count = witness_at c in
        Some
          {
            pb_boundary = c;
            pb_splits = List.init jj (fun k -> ends.(k));
            pb_pair = from_pair + jj;
            pb_meet_lo = lo_j;
            pb_reps_above = reps_above;
            pb_reps_total = reps_above + m_count;
          }
  end

let pessimistic_probe ?scratch t ~budget =
  match
    chain_probe ?scratch t ~budget ~from_pair:0 ~from_col:0 ~area:0.0 ~count:0
  with
  | Some pb -> pb
  | None -> probe_nothing
