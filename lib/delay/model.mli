(** The Otten–Brayton repeated-wire delay model (the paper's Eq. 2 and 3).

    A wire of length [l] on a layer-pair with per-unit-length resistance
    [r̄] and capacitance [c̄], divided into [eta] equal segments by [eta]
    uniform repeaters of size [s] (multiples of the minimum inverter), has
    total delay

    {v
      D(eta, s, l) = b r_o (c_o + c_p) eta
                   + b (c̄ r_o / s + r̄ c_o s) l
                   + a r̄ c̄ l^2 / eta
    v}

    with switching constants [a = 0.4] and [b = 0.7].  [D] is convex in
    [eta] and minimized at [s_opt = sqrt (c̄ r_o / (c_o r̄))] (the paper's
    Eq. 4), making the repeater-insertion subproblem per wire a 1-D integer
    search. *)

type line = {
  r_per_m : float;  (** r̄: wire resistance per meter, Ohm/m *)
  c_per_m : float;  (** c̄: effective switching capacitance per meter, F/m *)
}
[@@deriving show, eq]

type coeffs = { a : float; b : float } [@@deriving show, eq]
(** The Eq. (2) coefficients.  Every [?coeffs] below defaults to
    [a = 0.4], [b = 0.7] — the paper's footnote 5 values. *)

val line : r_per_m:float -> c_per_m:float -> line
(** @raise Invalid_argument on non-positive values. *)

val segment_delay :
  ?coeffs:coeffs -> Ir_tech.Device.t -> line -> s:float -> float -> float
(** [segment_delay dev line ~s l] is the Eq. (2) delay of one repeater of
    size [s] driving a segment of length [l] meters, with
    [R_tr = r_o / s], [C_L = s c_o] and parasitic [s c_p]. *)

val wire_delay :
  ?coeffs:coeffs ->
  Ir_tech.Device.t ->
  line ->
  s:float ->
  eta:int ->
  float ->
  float
(** [wire_delay dev line ~s ~eta l] is the Eq. (3) total delay of a wire of
    length [l] meters with [eta >= 1] repeaters of size [s].
    @raise Invalid_argument if [eta < 1] or [s <= 0]. *)

val s_opt : Ir_tech.Device.t -> line -> float
(** Optimal repeater size for the layer-pair (Eq. 4), clamped below at 1
    (a repeater cannot be smaller than a minimum inverter). *)

val eta_opt : ?coeffs:coeffs -> Ir_tech.Device.t -> line -> s:float -> float -> int
(** Integer repeater count (>= 1) minimizing Eq. (3) for a wire of length
    [l]; checks the two integers around the real-valued minimizer
    [l * sqrt (a r̄ c̄ / (b r_o (c_o + c_p)))]. *)

val min_delay :
  ?coeffs:coeffs -> Ir_tech.Device.t -> line -> s:float -> float -> float
(** The smallest achievable delay of the wire with unlimited repeaters of
    size [s] (Eq. 3 at {!eta_opt}).  A wire whose target is below this value
    can never meet it on this layer-pair. *)

val repeaters_needed :
  ?coeffs:coeffs ->
  ?eta_cap:int ->
  Ir_tech.Device.t ->
  line ->
  s:float ->
  target:float ->
  float ->
  int option
(** [repeaters_needed dev line ~s ~target l] is the minimal [eta >= 1] such
    that [wire_delay ~eta l <= target], or [None] when even the optimal
    count misses the target (or would exceed [eta_cap], default 1_000_000 —
    the paper's "repeaters cannot be placed at appropriate intervals"
    guard).  Cost is O(log eta) via binary search on the decreasing branch
    of the convex delay curve.  It is {!verdict} on a fresh {!kernel}. *)

(** {1 The Eq. (3) kernel}

    Every function above evaluates Eq. (3) through one kernel.  A caller
    that asks for many wires on one layer-pair (the repeater tables of
    [Ir_assign.Problem]) builds the pair's {!kernel} once and calls
    {!verdict} per wire. *)

type kernel
(** The wire-independent factors of Eq. (3) for one device, line and
    repeater size: the stage term [b r_o (c_o + c_p)], the per-meter term,
    [a r̄ c̄] and the square root of the continuous optimum's ratio, with
    the verdict's [eta_cap].  Each float is a left-associated prefix of
    the plain expression, so every delay computed from them has the
    plain expression's bits. *)

val kernel :
  ?coeffs:coeffs -> ?eta_cap:int -> Ir_tech.Device.t -> line -> s:float ->
  kernel
(** [eta_cap] defaults to {!repeaters_needed}'s.
    @raise Invalid_argument if [s < 1]. *)

val verdict : kernel -> target:float -> float -> int
(** [verdict k ~target l] is {!repeaters_needed}'s answer for a wire of
    length [l], with [0] for [None]: the same delays, compared in the
    same order.  Inlined across modules in the release profile, it
    allocates nothing.
    @raise Invalid_argument if [l < 0]. *)
