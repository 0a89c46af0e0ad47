(** Per-wire target-delay requirement models.

    The paper (Section 4.1) assigns wire [i] of length [l_i] the target
    [d_i = (l_i / l_max) * (1 / f_c)]: delay budgets linear in length,
    normalized so the longest wire gets one clock period.  Its Section 6
    notes this is pessimistic for short wires (actual unbuffered delay is
    quadratic in length) and announces a study of alternatives; the
    [Affine] and [Quadratic_blend] models below implement the two natural
    candidates and are exercised by the extension benches. *)

type t =
  | Linear
      (** [d(l) = (l / l_max) / f_c] — the paper's model. *)
  | Affine of { floor : float }
      (** [d(l) = floor + (l / l_max) * (1/f_c - floor)]: a fixed delay
          floor (e.g. a couple of FO4s) plus a linear span, acknowledging
          that no wire can beat device delay. *)
  | Quadratic_blend of { weight : float }
      (** [d(l) = (1/f_c) * ((1-w) * (l/l_max) + w * (l/l_max)^2)]:
          interpolates between the paper's linear budget ([w = 0]) and a
          fully quadratic one ([w = 1]) matching unbuffered-delay scaling. *)
[@@deriving show, eq]

val delay : t -> clock:float -> l_max:float -> float -> float
(** [delay t ~clock ~l_max l] is the target delay in seconds for a wire of
    length [l] meters.
    @raise Invalid_argument if [clock <= 0], [l_max <= 0], [l < 0] or
    [l > l_max *. (1. +. 1e-9)]. *)

val delays : t -> clock:float -> l_max:float -> float array -> float array
(** [delays t ~clock ~l_max ls] is [Array.map (delay t ~clock ~l_max) ls],
    bit for bit, with the argument checks and the period computed once;
    a bad model parameter is reported before a bad length.  It allocates
    only the array it returns. *)

val monotone_check : t -> clock:float -> l_max:float -> bool
(** True when the model assigns non-decreasing targets to longer wires
    (sampled check; all three models are monotone for valid parameters). *)
