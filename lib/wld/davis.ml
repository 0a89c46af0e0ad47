type params = { gates : int; rent_p : float; fan_out : float }
[@@deriving show, eq]

let params ?(rent_p = 0.6) ?(fan_out = 3.0) ~gates () =
  if gates <= 0 then invalid_arg "Davis.params: gates must be > 0";
  if not (rent_p > 0.0 && rent_p < 1.0) then
    invalid_arg "Davis.params: rent_p must lie in (0, 1)";
  if not (fan_out > 0.0) then invalid_arg "Davis.params: fan_out must be > 0";
  { gates; rent_p; fan_out }

let l_max p = 2.0 *. sqrt (float_of_int p.gates)

(* Integral of l^a over [l1, l2], handling the a = -1 logarithmic case
   (reached exactly when rent_p is 0, 0.5, 1 or 1.5). *)
let power_integral a l1 l2 =
  if Float.abs (a +. 1.0) < 1e-12 then log (l2 /. l1)
  else (Float.pow l2 (a +. 1.0) -. Float.pow l1 (a +. 1.0)) /. (a +. 1.0)

(* The unnormalized density is a sum of terms coef * l^expo; regions share
   the structure, so both the density and its antiderivative derive from the
   same term lists. *)
let region1_terms p =
  let n = float_of_int p.gates in
  let sqn = sqrt n in
  let e = (2.0 *. p.rent_p) -. 4.0 in
  [ (1.0 /. 3.0, e +. 3.0); (-2.0 *. sqn, e +. 2.0); (2.0 *. n, e +. 1.0) ]

let region2_terms p =
  let n = float_of_int p.gates in
  let sqn = sqrt n in
  let e = (2.0 *. p.rent_p) -. 4.0 in
  (* (2 sqrt N - l)^3 / 3 = (8 N^1.5 - 12 N l + 6 sqrt(N) l^2 - l^3) / 3 *)
  [
    (8.0 *. n *. sqn /. 3.0, e);
    (-4.0 *. n, e +. 1.0);
    (2.0 *. sqn, e +. 2.0);
    (-1.0 /. 3.0, e +. 3.0);
  ]

let eval_terms terms l =
  List.fold_left (fun acc (c, e) -> acc +. (c *. Float.pow l e)) 0.0 terms

let integrate_terms terms l1 l2 =
  List.fold_left
    (fun acc (c, e) -> acc +. (c *. power_integral e l1 l2))
    0.0 terms

(* Unnormalized cumulative from l = 1 to l, clamped to the support.  The
   term lists are built once per partial application, so a caller that
   evaluates many lengths of one [p] shares them. *)
let raw_cumulative p =
  let sqn = sqrt (float_of_int p.gates) in
  let lmax = 2.0 *. sqn in
  let terms1 = region1_terms p and terms2 = region2_terms p in
  fun l ->
    let l = Ir_phys.Numeric.clamp ~lo:1.0 ~hi:lmax l in
    let r1 = integrate_terms terms1 1.0 (Float.min l sqn) in
    let r2 = if l > sqn then integrate_terms terms2 sqn l else 0.0 in
    r1 +. r2

let total p = p.fan_out *. float_of_int p.gates

let norm p =
  let raw_total = raw_cumulative p (l_max p) in
  if not (raw_total > 0.0) then
    invalid_arg "Davis: degenerate distribution (raw mass is zero)";
  total p /. raw_total

let density p l =
  let n = float_of_int p.gates in
  let sqn = sqrt n in
  if l < 1.0 || l > 2.0 *. sqn then 0.0
  else
    let raw =
      if l <= sqn then eval_terms (region1_terms p) l
      else eval_terms (region2_terms p) l
    in
    norm p *. raw

(* Like [raw_cumulative], [cumulative p] computes the normalization and
   the term lists once, for every length it is then applied to. *)
let cumulative p =
  let k = norm p and raw = raw_cumulative p in
  fun l -> k *. raw l

let generate p =
  let lmax = l_max p in
  let n_lengths = int_of_float (Float.round lmax) in
  let cum = cumulative p in
  (* Cumulative rounding keeps the grand total exact and lets unit counts
     appear in the sparse tail instead of rounding it away. *)
  let count_up_to l = int_of_float (Float.round (cum l)) in
  let bins = ref [] in
  let prev = ref (count_up_to 1.0) in
  (* Wires in (0.5, 1.5] land in the l = 1 bin; the density starts at 1. *)
  let first = count_up_to 1.5 in
  if first > 0 then bins := { Dist.length = 1.0; count = first } :: !bins;
  prev := first;
  for l = 2 to n_lengths do
    let upper = Float.min (float_of_int l +. 0.5) lmax in
    let c = count_up_to upper in
    let here = c - !prev in
    if here > 0 then
      bins := { Dist.length = float_of_int l; count = here } :: !bins;
    prev := c
  done;
  Dist.of_bins (List.rev !bins)

let generate_meters p ~pitch =
  if not (pitch > 0.0) then
    invalid_arg "Davis.generate_meters: pitch must be > 0";
  Dist.map_length (fun l -> l *. pitch) (generate p)
