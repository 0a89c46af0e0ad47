type placement = { pair : int; bunch : int; wires : int }
[@@deriving show, eq]

(* All deterministic quantities — totals depend only on the calls made,
   not on domain scheduling (see Ir_obs). *)
let stat_calls = Ir_obs.counter "greedy_fill/calls"
let stat_wires = Ir_obs.counter "greedy_fill/wires_packed"
let stat_early = Ir_obs.counter "greedy_fill/early_exits"
let stat_take_adjust = Ir_obs.counter "greedy_fill/take_adjustments"
let stat_fast_fail = Ir_obs.counter "greedy_fill/fast_fails"
let stat_below_hits = Ir_obs.counter "greedy_fill/below_hits"
let stat_top_walks = Ir_obs.counter "greedy_fill/top_walks"

type context = {
  from_bunch : int;
  top_pair : int;
  top_pair_used : float;
  wires_above_top : int;
  reps_above_top : int;
  wires_above_below : int;
  reps_above_below : int;
}

let context ?(top_pair_used = 0.0) ?(wires_above_top = 0)
    ?(reps_above_top = 0) ?(wires_above_below = 0) ?(reps_above_below = 0)
    ~from_bunch ~top_pair () =
  {
    from_bunch;
    top_pair;
    top_pair_used;
    wires_above_top;
    reps_above_top;
    wires_above_below;
    reps_above_below;
  }

(* A pair's load with [x] more wires of one bunch on it: [a_w] wire-area
   already packed, the [x] wires' area, and the via blockage of everything
   above the pair ([base_wires] non-suffix wires, the [suffix_above - x]
   suffix wires still unplaced, [reps] repeaters).  The one expression
   behind [max_take]'s capacity inequality and the top-pair screen's
   ends. *)
let[@inline] load ~a_w ~x ~wire_area ~via ~vf ~base_wires ~suffix_above ~reps =
  a_w
  +. (float_of_int x *. wire_area)
  +. (via
     *. ((vf *. float_of_int (base_wires + suffix_above - x))
        +. float_of_int reps))

(* Max wires of one bunch that fit on pair q.

   Condition for x wires (given a_w wire-area already on q, and
   suffix_above wires of the suffix currently above q besides these x):

     a_w + x * wire_area
       + v_a * (v * (base_wires + suffix_above - x) + reps) <= cap_q

   i.e. x * (wire_area - v * v_a) <= room, where packing a wire onto q
   both consumes its routing area and removes its via stack from q's
   blockage. *)
let[@inline] max_take ~cap ~a_w ~wire_area ~via ~v ~base_wires ~reps
    ~suffix_above ~available =
  let vf = float_of_int v in
  (* The feasibility condition for taking x wires is [load ... <= cap], in
     its original uncollapsed form.  The closed-form estimate below
     rearranges it algebraically, but float algebra is not
     equivalence-preserving — every candidate is verified against the
     condition, which is the single source of truth.  It is written out
     at each use rather than bound to a local closure, which would be
     allocated per call and keep [max_take] from being inlined. *)
  let net = wire_area -. (vf *. via) in
  if net <= 0.0 then
    (* Packing a wire frees at least as much blockage as it consumes, so
       feasibility is monotone increasing in x: all or nothing. *)
    if
      load ~a_w ~x:available ~wire_area ~via ~vf ~base_wires ~suffix_above
        ~reps
      <= cap
    then available
    else 0
  else if
    load ~a_w ~x:available ~wire_area ~via ~vf ~base_wires ~suffix_above ~reps
    <= cap
  then available
  else begin
    (* Estimate x by the rearranged linear solve x <= room / net, then
       verify-and-adjust: the division can land one off in either
       direction (e.g. room/net = 7.000000000000001 when only 6 wires
       actually fit, or 6.999999999999999 when 7 do), and [room] itself
       compounds rearrangement error.  The estimate is within rounding
       of the true boundary, so the adjustment loops take at most a
       couple of steps. *)
    let fixed =
      a_w
      +. (via
         *. ((vf *. float_of_int (base_wires + suffix_above))
            +. float_of_int reps))
    in
    let room = cap -. fixed in
    let estimate =
      if room <= 0.0 then 0
      else min available (int_of_float (Float.floor (room /. net)))
    in
    let x = ref (max 0 estimate) in
    let adjusted = ref 0 in
    while
      !x > 0
      && not
           (load ~a_w ~x:!x ~wire_area ~via ~vf ~base_wires ~suffix_above
              ~reps
           <= cap)
    do
      decr x;
      incr adjusted
    done;
    while
      !x < available
      && load ~a_w ~x:(!x + 1) ~wire_area ~via ~vf ~base_wires ~suffix_above
           ~reps
         <= cap
    do
      incr x;
      incr adjusted
    done;
    (* Only count the off-by-rounding cases: an exact-on-first-try
       estimate is not an adjustment, and bumping the counter by zero
       would make its event count (and any future rate math over it)
       meaningless. *)
    if !adjusted > 0 then Ir_obs.add stat_take_adjust !adjusted;
    !x
  end

(* The capacity screen's verdict: demand strictly above availability by
   more than the relative slack.  [fast_reject] and [reject_row] share
   it. *)
let[@inline] exceeds ~demand_lb ~avail_ub =
  demand_lb > avail_ub *. (1.0 +. 1e-9)

(* O(pairs) fast-fail before the O(bunches) packing loop: compare an
   area {e demand lower bound} (the whole suffix routed at the
   narrowest available pitch — any real split across pairs costs at
   least that) against an {e availability upper bound} (per-pair
   capacity minus the blockage floor: via stacks of the context wires
   and repeaters only, as if no unplaced suffix wire ever crossed the
   pair).  Demand strictly above availability is a certain reject; the
   relative slack keeps float summation-order noise (both sides are
   prefix-table differences, the packer accumulates in another order)
   from ever rejecting a context the packer could satisfy. *)
let fast_reject t ctx =
  let n = Problem.n_bunches t in
  let m = Problem.n_pairs t in
  let cap = Problem.capacity t in
  let total_suffix =
    Problem.total_wires t - Problem.wires_before t ctx.from_bunch
  in
  total_suffix > 0
  &&
  let demand_lb = ref infinity and avail_ub = ref 0.0 in
  for q = ctx.top_pair to m - 1 do
    let area = Problem.interval_area t ~pair:q ~lo:ctx.from_bunch ~hi:n in
    if area < !demand_lb then demand_lb := area;
    let at_top = q = ctx.top_pair in
    let cap_q = if at_top then cap -. ctx.top_pair_used else cap in
    let blocked_lb =
      Problem.blocked t ~pair:q
        ~wires_above:
          (if at_top then ctx.wires_above_top else ctx.wires_above_below)
        ~reps_above:
          (if at_top then ctx.reps_above_top else ctx.reps_above_below)
    in
    avail_ub := !avail_ub +. Float.max 0.0 (cap_q -. blocked_lb)
  done;
  exceeds ~demand_lb:!demand_lb ~avail_ub:!avail_ub

(* [fast_reject] for every context of one row at once: the context of
   cell [i] is [from_bunch = i], [top_pair], no room taken on it, and
   [wires_before i] wires and no repeater above every pair.  The loop
   makes [fast_reject]'s float operations in its order; with no room
   taken, the top pair's [cap -. 0.0] is [cap], so every pair's term is
   the same expression.  Change the two together. *)
let reject_row t ~top_pair rejected =
  let n = Problem.n_bunches t in
  let m = Problem.n_pairs t in
  let cap = Problem.capacity t in
  let total = Problem.total_wires t in
  for i = 0 to n do
    let w = Problem.wires_before t i in
    rejected.(i) <-
      total - w > 0
      &&
      let demand_lb = ref infinity and avail_ub = ref 0.0 in
      for q = top_pair to m - 1 do
        let area = Problem.interval_area t ~pair:q ~lo:i ~hi:n in
        if area < !demand_lb then demand_lb := area;
        let blocked_lb =
          Problem.blocked t ~pair:q ~wires_above:w ~reps_above:0
        in
        avail_ub := !avail_ub +. Float.max 0.0 (cap -. blocked_lb)
      done;
      exceeds ~demand_lb:!demand_lb ~avail_ub:!avail_ub
  done

(* The top pair's verdict from the two ends of its walk.  The walk takes
   whole bunches shortest first ([rem] wires of bunch [next], then
   bunches [next - 1] down to [from_bunch]) and fits iff [load] stays
   within [cap_q] after every bunch.  In exact arithmetic the load is
   convex in the wires taken (each wire adds its area less the via stack
   it stops blocking, and wire areas never decrease along the walk), so
   its largest sample is the first bunch's or the last's.  The first end
   is the walk's own first test, bit for bit; the last end takes its
   routing area from the prefix table.  An end within [slack] of [cap_q]
   leaves the verdict to the walk; greedy_fill.mli derives the slack. *)
type screen = Reject | Accept | Walk

let top_screen t ctx ~next ~rem ~suffix_above =
  let arch = Problem.arch t in
  let pair = Ir_ia.Arch.pair arch ctx.top_pair in
  let via = pair.Ir_ia.Layer_pair.via_area in
  let vf = float_of_int arch.Ir_ia.Arch.vias_per_wire in
  let base_wires = ctx.wires_above_top and reps = ctx.reps_above_top in
  let cap_q = Problem.capacity t -. ctx.top_pair_used in
  let wire_area = Problem.bunch_length t next *. Ir_ia.Layer_pair.pitch pair in
  let first =
    load ~a_w:0.0 ~x:rem ~wire_area ~via ~vf ~base_wires ~suffix_above ~reps
  in
  if first > cap_q then Reject
  else begin
    let n = Problem.n_bunches t in
    let last =
      load
        ~a_w:
          (Problem.interval_area t ~pair:ctx.top_pair ~lo:ctx.from_bunch
             ~hi:next)
        ~x:rem ~wire_area ~via ~vf ~base_wires ~suffix_above:rem ~reps
    in
    let slack =
      float_of_int ((4 * n) + 64)
      *. epsilon_float
      *. (Problem.interval_area t ~pair:ctx.top_pair ~lo:0 ~hi:n
         +. Float.abs last +. Float.abs cap_q +. Float.abs first)
    in
    if last > cap_q +. slack then Reject
    else if first <= cap_q -. slack && last <= cap_q -. slack then Accept
    else Walk
  end

(* The pack cursor.  Packing is strictly shortest-first, so bunch [next]
   is the only partly packed one, with [rem] wires left; the bunches
   after it are packed and those before it untouched.  [settle] moves
   the cursor past packed bunches; [next < from_bunch] then means the
   whole suffix is packed.  One cursor per call, and the functions that
   move it are top-level, so a call allocates no closure and boxes no
   float. *)
type cursor = {
  mutable next : int;
  mutable rem : int;
  mutable packed : int;
  mutable placements : placement list;  (* only when recording *)
}

let settle t ~from c =
  while c.next >= from && c.rem = 0 do
    c.next <- c.next - 1;
    if c.next >= from then c.rem <- Problem.bunch_count t c.next
  done

(* Pack as much of the suffix as fits onto pair [q]. *)
let fill t ctx c ~total_suffix ~record q =
  let arch = Problem.arch t in
  let v = arch.Ir_ia.Arch.vias_per_wire in
  let from = ctx.from_bunch in
  let pair = Ir_ia.Arch.pair arch q in
  let via = pair.Ir_ia.Layer_pair.via_area in
  let at_top = q = ctx.top_pair in
  let base_wires =
    if at_top then ctx.wires_above_top else ctx.wires_above_below
  in
  let reps = if at_top then ctx.reps_above_top else ctx.reps_above_below in
  let cap = Problem.capacity t in
  let cap_q = if at_top then cap -. ctx.top_pair_used else cap in
  let a_w = ref 0.0 in
  let continue_pair = ref true in
  while !continue_pair && (settle t ~from c; c.next >= from) do
    let b = c.next in
    let wire_area = Problem.bunch_length t b *. Ir_ia.Layer_pair.pitch pair in
    (* Suffix wires currently unplaced (they will sit above q unless
       packed onto it now); max_take subtracts the x it packs. *)
    let suffix_above = total_suffix - c.packed in
    let take =
      max_take ~cap:cap_q ~a_w:!a_w ~wire_area ~via ~v ~base_wires ~reps
        ~suffix_above ~available:c.rem
    in
    if take > 0 then begin
      c.rem <- c.rem - take;
      c.packed <- c.packed + take;
      a_w := !a_w +. (float_of_int take *. wire_area);
      if record then
        c.placements <- { pair = q; bunch = b; wires = take } :: c.placements
    end;
    if c.rem > 0 then continue_pair := false
  done

(* Packing runs in two stages.  The pairs strictly below the top pair
   read only [t], [from_bunch], [top_pair], [wires_above_below] and
   [reps_above_below], the key of a [Scratch.below]; the top pair also
   reads [top_pair_used], [wires_above_top] and [reps_above_top].  With
   an arena, a full pack leaves its below-top state there, and a later
   call with the same key resumes at the top pair from it.  The top
   stage then runs the same float operations in the same order as a
   full pack, so the verdict and the early-exit count are the same;
   only the work counters ([wires_packed], [take_adjustments]) see
   less.  The top pair is decided by [top_screen]: [fits] walks it only
   when the screen leaves the verdict to the walk, [pack] also when it
   accepts, to record the placements. *)
let run ?scratch t ctx ~record =
  Ir_obs.incr stat_calls;
  let n = Problem.n_bunches t in
  let m = Problem.n_pairs t in
  if ctx.from_bunch < 0 || ctx.from_bunch > n then
    invalid_arg "Greedy_fill: from_bunch out of range";
  if ctx.top_pair < 0 || ctx.top_pair >= m then
    invalid_arg "Greedy_fill: top_pair out of range";
  if ctx.wires_above_top < 0 || ctx.reps_above_top < 0
     || ctx.wires_above_below < 0 || ctx.reps_above_below < 0 then
    invalid_arg "Greedy_fill: negative context counts";
  if not (Float.is_finite ctx.top_pair_used) then
    invalid_arg "Greedy_fill: top_pair_used must be finite";
  if fast_reject t ctx then begin
    Ir_obs.incr stat_fast_fail;
    None
  end
  else begin
    let from = ctx.from_bunch in
    let total_suffix = Problem.total_wires t - Problem.wires_before t from in
    let c = { next = n; rem = 0; packed = 0; placements = [] } in
    let packed_below =
      match scratch with
      | Some s -> (
          match Scratch.below s with
          | Some e
            when e.problem == t && e.from_bunch = from
                 && e.top_pair = ctx.top_pair
                 && e.wires_above_below = ctx.wires_above_below
                 && e.reps_above_below = ctx.reps_above_below ->
              Ir_obs.incr stat_below_hits;
              c.next <- e.next;
              c.rem <- e.rem;
              c.packed <- e.packed;
              e.packed
          | _ -> -1)
      | None -> -1
    in
    let packed_below =
      if packed_below >= 0 then packed_below
      else begin
        let q = ref (m - 1) in
        while !q > ctx.top_pair && (settle t ~from c; c.next >= from) do
          fill t ctx c ~total_suffix ~record !q;
          decr q
        done;
        settle t ~from c;
        (match scratch with
        | Some s ->
            Scratch.set_below s
              {
                problem = t;
                from_bunch = from;
                top_pair = ctx.top_pair;
                wires_above_below = ctx.wires_above_below;
                reps_above_below = ctx.reps_above_below;
                next = c.next;
                rem = c.rem;
                packed = c.packed;
              }
        | None -> ());
        0
      end
    in
    let ok =
      if c.next < from then begin
        (* Everything packed with pairs to spare. *)
        Ir_obs.incr stat_early;
        true
      end
      else
        match
          top_screen t ctx ~next:c.next ~rem:c.rem
            ~suffix_above:(total_suffix - c.packed)
        with
        | Reject -> false
        | Accept when not record -> true
        | verdict ->
            if verdict = Walk then Ir_obs.incr stat_top_walks;
            fill t ctx c ~total_suffix ~record ctx.top_pair;
            settle t ~from c;
            c.next < from
    in
    Ir_obs.add stat_wires (c.packed - packed_below);
    if ok then Some c.placements else None
  end

let pack t ctx = Option.map List.rev (run t ctx ~record:true)
let fits ?scratch t ctx = Option.is_some (run ?scratch t ctx ~record:false)
