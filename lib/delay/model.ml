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

(* The factors of Eq. (3) that do not depend on the wire: [si], [pm1]
   (per meter of length), [arc] = a r c and [root], the square root of
   [eta_opt_continuous], with the verdict's count cap.  Each float is a
   left-associated prefix of the
   expression it comes from ([a r c l l] parses as [(((a r) c) l) l]),
   so a wire's terms computed from them have the bits of the plain
   expressions. *)
type kernel = {
  si : float;
  pm1 : float;
  arc : float;
  root : float;
  eta_cap : int;
}

let kernel ?(coeffs = default_coeffs) ?(eta_cap = 1_000_000) dev line ~s =
  check_s s;
  let si = stage_intrinsic coeffs dev in
  let arc = coeffs.a *. line.r_per_m *. line.c_per_m in
  {
    si;
    pm1 = per_meter coeffs dev line ~s;
    arc;
    root = sqrt (arc /. si);
    eta_cap;
  }

(* Eq. (3) at [eta] from a wire's terms [pm] = pm1 l and [q] = a r c l l,
   in [wire_delay]'s association: [a r c l l / eta] is [q /. eta]. *)
let[@inline] delay_at k ~pm ~q eta =
  let eta_f = float_of_int eta in
  (k.si *. eta_f) +. pm +. (q /. eta_f)

let[@inline] check_length l =
  if l < 0.0 then invalid_arg "Model.wire_delay: negative length"

(* The better of the two integers around the continuous optimum. *)
let[@inline] eta_best k ~pm ~q l =
  let lo = max 1 (int_of_float (Float.floor (l *. k.root))) in
  if delay_at k ~pm ~q lo <= delay_at k ~pm ~q (lo + 1) then lo else lo + 1

let segment_delay ?(coeffs = default_coeffs) dev line ~s l =
  let k = kernel ~coeffs dev line ~s in
  if l < 0.0 then invalid_arg "Model.segment_delay: negative length";
  k.si +. (k.pm1 *. l) +. (k.arc *. l *. l)

let wire_delay ?(coeffs = default_coeffs) dev line ~s ~eta l =
  let k = kernel ~coeffs dev line ~s in
  if eta < 1 then invalid_arg "Model.wire_delay: eta must be >= 1";
  check_length l;
  delay_at k ~pm:(k.pm1 *. l) ~q:(k.arc *. l *. l) eta

let s_opt (dev : Ir_tech.Device.t) line =
  Float.max 1.0
    (sqrt (line.c_per_m *. dev.r_o /. (dev.c_o *. line.r_per_m)))

let eta_opt ?(coeffs = default_coeffs) dev line ~s l =
  let k = kernel ~coeffs dev line ~s in
  check_length l;
  eta_best k ~pm:(k.pm1 *. l) ~q:(k.arc *. l *. l) l

let min_delay ?(coeffs = default_coeffs) dev line ~s l =
  let eta = eta_opt ~coeffs dev line ~s l in
  wire_delay ~coeffs dev line ~s ~eta l

(* The verdict: 1 if one repeater meets [target], else the first count on
   the decreasing branch [1, eta_best] that does (binary search), or 0
   when even [eta_best] misses or exceeds the cap.  No optional argument:
   ocamlopt without flambda does not inline a function that has one, and
   the call would box [target] and [l]. *)
let[@inline] verdict k ~target l =
  check_length l;
  let pm = k.pm1 *. l and q = k.arc *. l *. l in
  if delay_at k ~pm ~q 1 <= target then 1
  else
    let best = eta_best k ~pm ~q l in
    if best > k.eta_cap || delay_at k ~pm ~q (min best k.eta_cap) > target
    then 0
    else begin
      (* Invariant: delay lo > target, delay hi <= target. *)
      let lo = ref 1 and hi = ref best in
      while !hi - !lo > 1 do
        let mid = !lo + ((!hi - !lo) / 2) in
        if delay_at k ~pm ~q mid <= target then hi := mid else lo := mid
      done;
      !hi
    end

let repeaters_needed ?coeffs ?eta_cap dev line ~s ~target l =
  match verdict (kernel ?coeffs ?eta_cap dev line ~s) ~target l with
  | 0 -> None
  | e -> Some e
