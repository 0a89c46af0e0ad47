type placement = { pair : int; bunch : int; wires : int }
[@@deriving show, eq]

(* All deterministic quantities — totals depend only on the calls made,
   not on domain scheduling (see Ir_obs). *)
let stat_calls = Ir_obs.counter "greedy_fill/calls"
let stat_wires = Ir_obs.counter "greedy_fill/wires_packed"
let stat_early = Ir_obs.counter "greedy_fill/early_exits"
let stat_take_adjust = Ir_obs.counter "greedy_fill/take_adjustments"
let stat_fast_fail = Ir_obs.counter "greedy_fill/fast_fails"

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

(* Max wires of one bunch that fit on pair q.

   Condition for x wires (given a_w wire-area already on q, and
   suffix_above wires of the suffix currently above q besides these x):

     a_w + x * wire_area
       + v_a * (v * (base_wires + suffix_above - x) + reps) <= cap_q

   i.e. x * (wire_area - v * v_a) <= room, where packing a wire onto q
   both consumes its routing area and removes its via stack from q's
   blockage. *)
let max_take ~cap ~a_w ~wire_area ~via ~v ~base_wires ~reps ~suffix_above
    ~available =
  let vf = float_of_int v in
  (* The feasibility condition for taking x wires, in its original
     uncollapsed form.  The closed-form estimate below rearranges it
     algebraically, but float algebra is not equivalence-preserving —
     every candidate is verified against this predicate, which is the
     single source of truth. *)
  let ok x =
    a_w
    +. (float_of_int x *. wire_area)
    +. (via
       *. ((vf *. float_of_int (base_wires + suffix_above - x))
          +. float_of_int reps))
    <= cap
  in
  let net = wire_area -. (vf *. via) in
  if net <= 0.0 then
    (* Packing a wire frees at least as much blockage as it consumes, so
       feasibility is monotone increasing in x: all or nothing. *)
    if ok available then available else 0
  else if ok available then available
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
    while !x > 0 && not (ok !x) do
      decr x;
      incr adjusted
    done;
    while !x < available && ok (!x + 1) do
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
  !demand_lb > !avail_ub *. (1.0 +. 1e-9)

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
  let cap = Problem.capacity t in
  let arch = Problem.arch t in
  let v = arch.Ir_ia.Arch.vias_per_wire in
  let total_suffix =
    Problem.total_wires t - Problem.wires_before t ctx.from_bunch
  in
  if fast_reject t ctx then begin
    Ir_obs.incr stat_fast_fail;
    None
  end
  else
  let placements = ref [] in
  (* The packing loop only ever touches [remaining.(b)] for [b < n], so a
     scratch buffer longer than [n] is fine; the refill writes exactly
     the values [Array.init] would. *)
  let remaining =
    match scratch with
    | None -> Array.init n (fun b -> Problem.bunch_count t b)
    | Some s ->
        let r = Scratch.ints s n in
        for b = 0 to n - 1 do
          r.(b) <- Problem.bunch_count t b
        done;
        r
  in
  for b = 0 to ctx.from_bunch - 1 do
    remaining.(b) <- 0
  done;
  let next = ref (n - 1) in
  let packed_total = ref 0 in
  let exception Done of bool in
  try
    let q = ref (m - 1) in
    while !q >= ctx.top_pair do
      while !next >= ctx.from_bunch && remaining.(!next) = 0 do
        decr next
      done;
      if !next < ctx.from_bunch then begin
        (* Everything packed with pairs to spare. *)
        Ir_obs.incr stat_early;
        raise (Done true)
      end;
      let pair = Ir_ia.Arch.pair arch !q in
      let via = pair.Ir_ia.Layer_pair.via_area in
      let at_top = !q = ctx.top_pair in
      let base_wires =
        if at_top then ctx.wires_above_top else ctx.wires_above_below
      in
      let reps =
        if at_top then ctx.reps_above_top else ctx.reps_above_below
      in
      let cap_q = if at_top then cap -. ctx.top_pair_used else cap in
      (* Suffix wires above q (besides those being packed onto q now):
         everything not yet packed below. *)
      let a_w = ref 0.0 in
      let continue_pair = ref true in
      while !continue_pair && !next >= ctx.from_bunch do
        if remaining.(!next) = 0 then decr next
        else begin
          let b = !next in
          let wire_area =
            Problem.bunch_length t b *. Ir_ia.Layer_pair.pitch pair
          in
          (* Suffix wires currently unplaced (they will sit above q unless
             packed onto it now); max_take subtracts the x it packs. *)
          let suffix_above = total_suffix - !packed_total in
          let take =
            max_take ~cap:cap_q ~a_w:!a_w ~wire_area ~via ~v ~base_wires
              ~reps ~suffix_above ~available:remaining.(b)
          in
          if take > 0 then begin
            remaining.(b) <- remaining.(b) - take;
            packed_total := !packed_total + take;

            a_w := !a_w +. (float_of_int take *. wire_area);
            if record then
              placements :=
                { pair = !q; bunch = b; wires = take } :: !placements
          end;
          if remaining.(b) > 0 then continue_pair := false
        end
      done;
      decr q
    done;
    while !next >= ctx.from_bunch && remaining.(!next) = 0 do
      decr next
    done;
    raise (Done (!next < ctx.from_bunch))
  with Done ok ->
    Ir_obs.add stat_wires !packed_total;
    if ok then Some (List.rev !placements) else None

let pack ?scratch t ctx = run ?scratch t ctx ~record:true
let fits ?scratch t ctx = Option.is_some (run ?scratch t ctx ~record:false)
