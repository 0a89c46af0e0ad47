type line = { r_per_m : float; c_per_m : float } [@@deriving show, eq]
type coeffs = { a : float; b : float } [@@deriving show, eq]

let default_coeffs = { a = 0.4; b = 0.7 }

let line ~r_per_m ~c_per_m =
  if not (r_per_m > 0.0 && c_per_m > 0.0) then
    invalid_arg "Model.line: r and c per meter must be > 0";
  { r_per_m; c_per_m }

let check_s s = if not (s >= 1.0) then invalid_arg "Model: repeater size < 1"

(* b r_o (c_o + c_p): the per-stage intrinsic term of Eq. (3).  The
   parasitic capacitance scales with the repeater size, which is what
   collapses Eq. (2) with R_tr = r_o/s, C_L = c_o s into this form. *)
let stage_intrinsic coeffs (dev : Ir_tech.Device.t) =
  coeffs.b *. dev.r_o *. (dev.c_o +. dev.c_p)

let per_meter coeffs (dev : Ir_tech.Device.t) line ~s =
  coeffs.b
  *. ((line.c_per_m *. dev.r_o /. s) +. (line.r_per_m *. dev.c_o *. s))

let segment_delay ?(coeffs = default_coeffs) dev line ~s l =
  check_s s;
  if l < 0.0 then invalid_arg "Model.segment_delay: negative length";
  stage_intrinsic coeffs dev
  +. (per_meter coeffs dev line ~s *. l)
  +. (coeffs.a *. line.r_per_m *. line.c_per_m *. l *. l)

(* The eta-independent terms of Eq. (3) for a wire of length [l]:
   [delay_at] sums them at [eta] in [wire_delay]'s association, so a
   caller that evaluates many [eta] for one wire computes them once and
   gets [wire_delay]'s bits.  [a r c l l / eta] parses as
   [(a r c l l) / eta], hence [q /. eta]. *)
type terms = { si : float; pm : float; q : float }

let terms coeffs dev line ~s l =
  if l < 0.0 then invalid_arg "Model.wire_delay: negative length";
  {
    si = stage_intrinsic coeffs dev;
    pm = per_meter coeffs dev line ~s *. l;
    q = coeffs.a *. line.r_per_m *. line.c_per_m *. l *. l;
  }

let delay_at t eta =
  let eta_f = float_of_int eta in
  (t.si *. eta_f) +. t.pm +. (t.q /. eta_f)

let wire_delay ?(coeffs = default_coeffs) dev line ~s ~eta l =
  check_s s;
  if eta < 1 then invalid_arg "Model.wire_delay: eta must be >= 1";
  delay_at (terms coeffs dev line ~s l) eta

let s_opt (dev : Ir_tech.Device.t) line =
  Float.max 1.0
    (sqrt (line.c_per_m *. dev.r_o /. (dev.c_o *. line.r_per_m)))

let eta_opt_continuous ?(coeffs = default_coeffs) dev line l =
  l *. sqrt (coeffs.a *. line.r_per_m *. line.c_per_m
             /. stage_intrinsic coeffs dev)

(* The better of the two integers around the continuous optimum [cont]
   under the delay function [d]. *)
let round_eta ~d cont =
  let lo = max 1 (int_of_float (Float.floor cont)) in
  let hi = lo + 1 in
  if d lo <= d hi then lo else hi

let eta_opt ?(coeffs = default_coeffs) dev line ~s l =
  round_eta
    ~d:(fun eta -> wire_delay ~coeffs dev line ~s ~eta l)
    (eta_opt_continuous ~coeffs dev line l)

let min_delay ?(coeffs = default_coeffs) dev line ~s l =
  let eta = eta_opt ~coeffs dev line ~s l in
  wire_delay ~coeffs dev line ~s ~eta l

(* [delay eta] is [wire_delay ~eta l] from terms computed once per
   call.  [eta_best] is [eta_opt]'s choice, made from the same delays. *)
let repeaters_needed ?(coeffs = default_coeffs) ?(eta_cap = 1_000_000) dev
    line ~s ~target l =
  check_s s;
  let delay = delay_at (terms coeffs dev line ~s l) in
  if delay 1 <= target then Some 1
  else
    let eta_best =
      round_eta ~d:delay (eta_opt_continuous ~coeffs dev line l)
    in
    if eta_best > eta_cap || delay (min eta_best eta_cap) > target then None
    else begin
      (* D is decreasing on [1, eta_best]; find the first eta meeting the
         target by binary search. *)
      let rec search lo hi =
        (* Invariant: delay lo > target, delay hi <= target. *)
        if hi - lo <= 1 then hi
        else
          let mid = lo + ((hi - lo) / 2) in
          if delay mid <= target then search lo mid else search mid hi
      in
      Some (search 1 eta_best)
    end
