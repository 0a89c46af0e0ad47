type params = { gates : int; rent_p : float; fan_out : float }
[@@deriving show, eq]

let params ?(rent_p = 0.6) ?(fan_out = 3.0) ~gates () =
  if gates <= 0 then invalid_arg "Davis.params: gates must be > 0";
  if not (rent_p > 0.0 && rent_p < 1.0) then
    invalid_arg "Davis.params: rent_p must lie in (0, 1)";
  if not (fan_out > 0.0) then invalid_arg "Davis.params: fan_out must be > 0";
  { gates; rent_p; fan_out }

let l_max p = 2.0 *. sqrt (float_of_int p.gates)

(* The unnormalized density is a sum of terms coef * l^expo per region,
   and both the density and its antiderivative derive from the same
   term arrays. *)
let region1_terms p =
  let n = float_of_int p.gates in
  let sqn = sqrt n in
  let e = (2.0 *. p.rent_p) -. 4.0 in
  ([| 1.0 /. 3.0; -2.0 *. sqn; 2.0 *. n |], [| e +. 3.0; e +. 2.0; e +. 1.0 |])

let region2_terms p =
  let n = float_of_int p.gates in
  let sqn = sqrt n in
  let e = (2.0 *. p.rent_p) -. 4.0 in
  (* (2 sqrt N - l)^3 / 3 = (8 N^1.5 - 12 N l + 6 sqrt(N) l^2 - l^3) / 3 *)
  ( [| 8.0 *. n *. sqn /. 3.0; -4.0 *. n; 2.0 *. sqn; -1.0 /. 3.0 |],
    [| e; e +. 1.0; e +. 2.0; e +. 3.0 |] )

let eval_terms (coefs, expos) l =
  let acc = ref 0.0 in
  for i = 0 to Array.length coefs - 1 do
    acc := !acc +. (coefs.(i) *. Float.pow l expos.(i))
  done;
  !acc

(* The integral of one region's terms from a fixed lower endpoint [l1].
   Per term, the integral of l^a over [l1, l2] is
   (l2^(a+1) - l1^(a+1)) / (a+1), or log (l2 / l1) when a = -1 (reached
   exactly when rent_p is 0, 0.5, 1 or 1.5).  [l1^(a+1)] is the same
   float at every [l2], so it is computed once here; each [l2] then
   runs the per-term expression and the left-to-right sum from 0.0 that
   a term-by-term evaluation runs, and yields the same bits. *)
type integral = {
  coefs : float array;
  a1 : float array;  (* a + 1 per term *)
  p1 : float array;  (* l1^(a+1) per term *)
  l1 : float;
}

let integral (coefs, expos) l1 =
  let a1 = Array.map (fun a -> a +. 1.0) expos in
  { coefs; a1; p1 = Array.map (Float.pow l1) a1; l1 }

let integrate g l2 =
  let acc = ref 0.0 in
  for i = 0 to Array.length g.coefs - 1 do
    let a1 = g.a1.(i) in
    let v =
      if Float.abs a1 < 1e-12 then log (l2 /. g.l1)
      else (Float.pow l2 a1 -. g.p1.(i)) /. a1
    in
    acc := !acc +. (g.coefs.(i) *. v)
  done;
  !acc

(* Unnormalized cumulative from l = 1 to l, clamped to the support.  The
   term arrays, the lower-endpoint powers and the whole region-1
   integral (which every l > sqrt N adds) are computed once per partial
   application, for every length it is then applied to. *)
let raw_cumulative p =
  let sqn = sqrt (float_of_int p.gates) in
  let lmax = 2.0 *. sqn in
  let g1 = integral (region1_terms p) 1.0
  and g2 = integral (region2_terms p) sqn in
  let r1_total = integrate g1 sqn in
  fun l ->
    let l = Ir_phys.Numeric.clamp ~lo:1.0 ~hi:lmax l in
    if l > sqn then r1_total +. integrate g2 l else integrate g1 l

let total p = p.fan_out *. float_of_int p.gates

let norm_of p raw =
  let raw_total = raw (l_max p) in
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
    norm_of p (raw_cumulative p) *. raw

(* Like [raw_cumulative], [cumulative p] computes the normalization and
   the integrals' constants once, for every length it is then applied
   to. *)
let cumulative p =
  let raw = raw_cumulative p in
  let k = norm_of p raw in
  fun l -> k *. raw l

let generate p =
  let lmax = l_max p in
  let n_lengths = int_of_float (Float.round lmax) in
  let cum = cumulative p in
  (* Cumulative rounding keeps the grand total exact and lets unit counts
     appear in the sparse tail instead of rounding it away. *)
  let count_up_to l = int_of_float (Float.round (cum l)) in
  (* Lengths 1, 2, ... ascend, so the bins are filled in their final
     order; at most one per length. *)
  let bins = Array.make n_lengths { Dist.length = 1.0; count = 0 } in
  let used = ref 0 in
  let add length count =
    bins.(!used) <- { Dist.length; count };
    incr used
  in
  (* Wires in (0.5, 1.5] land in the l = 1 bin; the density starts at 1. *)
  let first = count_up_to 1.5 in
  if first > 0 then add 1.0 first;
  let prev = ref first in
  for l = 2 to n_lengths do
    let upper = Float.min (float_of_int l +. 0.5) lmax in
    let c = count_up_to upper in
    let here = c - !prev in
    if here > 0 then add (float_of_int l) here;
    prev := c
  done;
  Dist.of_array (Array.sub bins 0 !used)

let generate_meters p ~pitch =
  if not (pitch > 0.0) then
    invalid_arg "Davis.generate_meters: pitch must be > 0";
  Dist.map_length (fun l -> l *. pitch) (generate p)
