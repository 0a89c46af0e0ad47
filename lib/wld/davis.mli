(** The Davis–De–Meindl stochastic wire-length distribution
    (IEEE Trans. Electron Devices 45(3), 1998) — the WLD used by the paper
    (its footnote 2).

    The distribution of point-to-point interconnect lengths in an [N]-gate
    random logic design with Rent exponent [p] and average fan-out [f.o.] is,
    in gate-pitch units [l]:

    {v
      region I  (1 <= l <= sqrt N):
        i(l) = c * (l^3/3 - 2 sqrt(N) l^2 + 2 N l) * l^(2p-4)
      region II (sqrt N <= l <= 2 sqrt N):
        i(l) = c * ((2 sqrt(N) - l)^3 / 3) * l^(2p-4)
    v}

    where the constant [c = alpha k Gamma / 2] is fixed by normalizing the
    total interconnect count to [alpha * k * N = f.o. * N] (the [1 -
    N^(p-1)] correction of the exact Davis normalization is below 0.5% for
    the million-gate designs studied and is absorbed into the
    normalization).  The density is continuous at [sqrt N]. *)

type params = { gates : int; rent_p : float; fan_out : float }
[@@deriving show, eq]

val params :
  ?rent_p:float -> ?fan_out:float -> gates:int -> unit -> params
(** Defaults: [rent_p = 0.6] (the paper's value), [fan_out = 3.0].
    @raise Invalid_argument if [gates <= 0], [rent_p] outside (0, 1) or
    [fan_out <= 0]. *)

val l_max : params -> float
(** Maximum wire length, [2 sqrt N] gate pitches. *)

val density : params -> float -> float
(** [density p l] is the normalized interconnect density i(l) at length [l]
    gate pitches; zero outside [1, 2 sqrt N]. *)

val cumulative : params -> float -> float
(** [cumulative p l] is the expected number of wires of length <= [l],
    computed from the closed-form antiderivative (exact up to the
    normalization constant; no quadrature).  A partial application
    [cumulative p] computes the per-call constants of {!generate} once
    and is the function {!generate} rounds. *)

val total : params -> float
(** Expected total interconnect count, [f.o. * N]. *)

val generate : params -> Dist.t
(** Discretizes the distribution into integer gate-pitch bins
    [l = 1, 2, ...] with cumulative rounding, so the total count matches
    {!total} to within one wire and sparse tails are preserved.

    Every bin is bit-identical to evaluating the closed form term by
    term at each length: per term [(l^(a+1) - l1^(a+1)) / (a+1)] (or
    [log (l / l1)] when [a = -1]), summed left to right from 0.0.  What
    does not depend on the length is computed once per call — the
    normalization, each term's [l1^(a+1)] and the whole region-I
    integral — and the lengths run through one first-order loop that
    boxes no float.  It allocates one int per length for the counts and
    then the two columns that {!Dist.of_columns} validates and keeps.
    Nothing is cached across calls. *)

val generate_meters : params -> pitch:float -> Dist.t
(** {!generate} followed by scaling lengths by the effective gate pitch in
    meters. *)
