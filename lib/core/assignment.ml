module P = Ir_assign.Problem
module GF = Ir_assign.Greedy_fill

type pair_load = {
  pair : int;
  bunch_lo : int;
  bunch_hi : int;
  wires : int;
  repeaters : int;
  repeater_area : float;
  routing_area : float;
}
[@@deriving show, eq]

type t = {
  outcome : Outcome.t;
  meeting : pair_load list;
  overflow : GF.placement list;
}
[@@deriving show]

let load_of_interval problem ~pair ~lo ~hi =
  let rep_area, repeaters =
    match P.meeting_cost problem ~pair ~lo ~hi with
    | Some (a, c) -> (a, c)
    | None ->
        (* The witness guarantees feasibility of its meeting intervals. *)
        assert false
  in
  {
    pair;
    bunch_lo = lo;
    bunch_hi = hi;
    wires = P.wires_before problem hi - P.wires_before problem lo;
    repeaters;
    repeater_area = rep_area;
    routing_area = P.interval_area problem ~pair ~lo ~hi;
  }

let extract ?max_pareto problem =
  let outcome, witness = Rank_grid.compute ?max_pareto problem in
  match witness with
  | None -> { outcome; meeting = []; overflow = [] }
  | Some w ->
      let meeting = ref [] in
      let lo = ref 0 in
      List.iteri
        (fun j hi ->
          if hi > !lo then
            meeting := load_of_interval problem ~pair:j ~lo:!lo ~hi :: !meeting;
          lo := hi)
        w.Rank_dp.prefix_splits;
      if w.Rank_dp.meet_hi > w.Rank_dp.meet_lo then
        meeting :=
          load_of_interval problem ~pair:w.Rank_dp.boundary_pair
            ~lo:w.Rank_dp.meet_lo ~hi:w.Rank_dp.meet_hi
          :: !meeting;
      let meeting = List.rev !meeting in
      let top_pair_used =
        P.interval_area problem ~pair:w.Rank_dp.boundary_pair
          ~lo:w.Rank_dp.meet_lo ~hi:w.Rank_dp.meet_hi
      in
      let overflow =
        match
          GF.pack problem
            (GF.context ~top_pair_used
               ~wires_above_top:(P.wires_before problem w.Rank_dp.meet_lo)
               ~reps_above_top:w.Rank_dp.reps_above
               ~wires_above_below:(P.wires_before problem w.Rank_dp.meet_hi)
               ~reps_above_below:w.Rank_dp.reps_total
               ~from_bunch:w.Rank_dp.meet_hi
               ~top_pair:w.Rank_dp.boundary_pair ())
        with
        | Some p -> p
        | None ->
            (* The witness asserted this pack is feasible. *)
            assert false
      in
      { outcome; meeting; overflow }

(* Independent re-validation of a witness, using only Problem's public
   per-wire primitives (not the prefix tables the DP used). *)
let check problem t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let m = P.n_pairs problem in
  let budget = P.budget problem in
  let cap = P.capacity problem in
  (* 1. Meeting loads: contiguous, top-down, consistent with the rank. *)
  let rec check_contiguous lo pair = function
    | [] -> lo
    | l :: rest ->
        if l.bunch_lo <> lo then
          err "pair %d meeting interval starts at %d, expected %d" l.pair
            l.bunch_lo lo;
        if l.pair < pair then err "meeting pairs not top-down";
        check_contiguous l.bunch_hi l.pair rest
  in
  let boundary = check_contiguous 0 0 t.meeting in
  if boundary <> t.outcome.Outcome.boundary_bunch then
    err "meeting loads cover %d bunches, outcome says %d" boundary
      t.outcome.Outcome.boundary_bunch;
  (* 2. Per-wire delay feasibility and repeater accounting. *)
  let total_rep_area = ref 0.0 in
  List.iter
    (fun l ->
      let reps = ref 0 in
      for b = l.bunch_lo to l.bunch_hi - 1 do
        match P.eta_min problem ~pair:l.pair ~bunch:b with
        | None -> err "bunch %d cannot meet its target on pair %d" b l.pair
        | Some eta -> reps := !reps + (eta * P.bunch_count problem b)
      done;
      if !reps <> l.repeaters then
        err "pair %d claims %d repeaters, minimal is %d" l.pair l.repeaters
          !reps;
      total_rep_area := !total_rep_area +. l.repeater_area)
    t.meeting;
  if !total_rep_area > budget *. (1.0 +. 1e-9) then
    err "repeater area %.3g exceeds budget %.3g" !total_rep_area budget;
  (* 3. Per-pair capacity including via blockage and overflow placements. *)
  let routing = Array.make m 0.0 in
  let wires_on = Array.make m 0 in
  let reps_on = Array.make m 0 in
  List.iter
    (fun l ->
      routing.(l.pair) <- routing.(l.pair) +. l.routing_area;
      wires_on.(l.pair) <- wires_on.(l.pair) + l.wires;
      reps_on.(l.pair) <- reps_on.(l.pair) + l.repeaters)
    t.meeting;
  List.iter
    (fun (p : GF.placement) ->
      let pair_t = Ir_ia.Arch.pair (P.arch problem) p.pair in
      routing.(p.pair) <-
        routing.(p.pair)
        +. float_of_int p.wires
           *. P.bunch_length problem p.bunch
           *. Ir_ia.Layer_pair.pitch pair_t;
      wires_on.(p.pair) <- wires_on.(p.pair) + p.wires)
    t.overflow;
  let wires_above = ref 0 and reps_above = ref 0 in
  for j = 0 to m - 1 do
    let blocked =
      P.blocked problem ~pair:j ~wires_above:!wires_above
        ~reps_above:!reps_above
    in
    if routing.(j) +. blocked > cap *. (1.0 +. 1e-9) then
      err "pair %d over capacity: %.3g + %.3g > %.3g" j routing.(j) blocked
        cap;
    wires_above := !wires_above + wires_on.(j);
    reps_above := !reps_above + reps_on.(j)
  done;
  (* 4. Everything placed. *)
  if t.outcome.Outcome.assignable && !wires_above <> P.total_wires problem
  then err "placed %d wires of %d" !wires_above (P.total_wires problem);
  match !errors with
  | [] -> Ok ()
  | es -> Error (String.concat "; " (List.rev es))

let utilization problem t =
  let m = P.n_pairs problem in
  let cap = P.capacity problem in
  let routing = Array.make m 0.0 in
  let wires_on = Array.make m 0 in
  let reps_on = Array.make m 0 in
  List.iter
    (fun l ->
      routing.(l.pair) <- routing.(l.pair) +. l.routing_area;
      wires_on.(l.pair) <- wires_on.(l.pair) + l.wires;
      reps_on.(l.pair) <- reps_on.(l.pair) + l.repeaters)
    t.meeting;
  List.iter
    (fun (p : GF.placement) ->
      let pair_t = Ir_ia.Arch.pair (P.arch problem) p.pair in
      routing.(p.pair) <-
        routing.(p.pair)
        +. float_of_int p.wires
           *. P.bunch_length problem p.bunch
           *. Ir_ia.Layer_pair.pitch pair_t;
      wires_on.(p.pair) <- wires_on.(p.pair) + p.wires)
    t.overflow;
  let wires_above = ref 0 and reps_above = ref 0 in
  List.init m (fun j ->
      let blocked =
        P.blocked problem ~pair:j ~wires_above:!wires_above
          ~reps_above:!reps_above
      in
      wires_above := !wires_above + wires_on.(j);
      reps_above := !reps_above + reps_on.(j);
      (j, (routing.(j) +. blocked) /. cap))

let pp_human problem ppf t =
  let arch = P.arch problem in
  let util = utilization problem t in
  Format.fprintf ppf "@[<v>%a@," Outcome.pp_human t.outcome;
  List.iter
    (fun l ->
      let p = Ir_ia.Arch.pair arch l.pair in
      Format.fprintf ppf
        "pair %d (%s): meeting bunches [%d, %d), %d wires, %d repeaters, \
         utilization %.1f%%@,"
        l.pair
        (Ir_tech.Metal_class.to_string p.cls)
        l.bunch_lo l.bunch_hi l.wires l.repeaters
        (100.0 *. List.assoc l.pair util))
    t.meeting;
  let overflow_wires =
    List.fold_left (fun a (p : GF.placement) -> a + p.wires) 0 t.overflow
  in
  Format.fprintf ppf "overflow (capacity-only): %d wires across %d placements@]"
    overflow_wires (List.length t.overflow)
