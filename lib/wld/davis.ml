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

let[@inline] integrate g l2 =
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

(* What the unnormalized cumulative reads besides the length: the
   support, the integrals' constants and the whole region-1 integral
   (which every l > sqrt N adds), computed once per call. *)
type shape = {
  sqn : float;
  lmax : float;
  g1 : integral;
  g2 : integral;
  r1_total : float;
}

let shape p =
  let sqn = sqrt (float_of_int p.gates) in
  let g1 = integral (region1_terms p) 1.0 in
  { sqn; lmax = 2.0 *. sqn; g1; g2 = integral (region2_terms p) sqn;
    r1_total = integrate g1 sqn }

(* Unnormalized cumulative from l = 1 to l, clamped to the support (the
   clamp of [Ir_phys.Numeric.clamp], whose bounds here are ordered). *)
let[@inline] raw_at s l =
  let l = if l < 1.0 then 1.0 else if l > s.lmax then s.lmax else l in
  if l > s.sqn then s.r1_total +. integrate s.g2 l else integrate s.g1 l

let total p = p.fan_out *. float_of_int p.gates

let norm_of p s =
  let raw_total = raw_at s (l_max p) in
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
    norm_of p (shape p) *. raw

(* [cumulative p] computes the normalization and the integrals'
   constants once, for every length it is then applied to. *)
let cumulative p =
  let s = shape p in
  let k = norm_of p s in
  fun l -> k *. raw_at s l

(* One first-order loop over the lengths: [k *. raw_at s upper] is
   [cumulative p upper], inlined, so no float is boxed per length.
   Cumulative rounding keeps the grand total exact and lets unit counts
   appear in the sparse tail instead of rounding it away.  Wires in
   (0.5, 1.5] land in the l = 1 bin; the density starts at 1. *)
let generate p =
  let s = shape p in
  let k = norm_of p s in
  let n_lengths = int_of_float (Float.round s.lmax) in
  let here = Array.make n_lengths 0 in
  let prev = ref 0 and used = ref 0 in
  for l = 1 to n_lengths do
    let upper =
      if l = 1 then 1.5
      else
        let u = float_of_int l +. 0.5 in
        if u < s.lmax then u else s.lmax
    in
    let c = int_of_float (Float.round (k *. raw_at s upper)) in
    let h = c - !prev in
    if h > 0 then begin
      here.(l - 1) <- h;
      incr used
    end;
    prev := c
  done;
  let lengths = Array.make !used 0.0 and counts = Array.make !used 0 in
  let j = ref 0 in
  for l = 1 to n_lengths do
    let h = here.(l - 1) in
    if h > 0 then begin
      lengths.(!j) <- float_of_int l;
      counts.(!j) <- h;
      incr j
    end
  done;
  Dist.of_columns lengths counts

let generate_meters p ~pitch =
  if not (pitch > 0.0) then
    invalid_arg "Davis.generate_meters: pitch must be > 0";
  Dist.map_length (fun l -> l *. pitch) (generate p)
