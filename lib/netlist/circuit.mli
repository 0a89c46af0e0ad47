(** Synthetic Rent-rule circuits.

    The paper takes the Davis stochastic WLD on faith (its footnote 2);
    Davis et al. derived it from Rent's rule and validated it against
    placed designs.  This module closes that loop inside the
    reproduction: it {e generates} gate-level circuits whose hierarchical
    connectivity obeys Rent's rule — the construction of Stroobandt-style
    synthetic benchmarks — so that {!Placement} and {!Extract} can
    measure an actual wire length distribution and compare it with the
    closed form.

    Construction: gates sit on a w x h grid; the grid is quadrisected
    recursively, and at every hierarchy level the number of nets crossing
    the cut is set by Rent's rule,

    {v  cuts(block) = alpha * (sum T(children) - T(block)) / 2,
        T(B) = k_rent * B^p  v}

    with [alpha] the source fraction (Davis's f.o./(f.o.+1)).  Each
    crossing net connects a uniformly drawn gate in one child to one in a
    sibling — two-pin nets, matching the point-to-point interconnects the
    Davis distribution counts.  All randomness flows from a caller-seeded
    PRNG, so circuits are reproducible.

    Terminal conservation fixes the {e count} scale at [alpha k N / 2]
    two-pin nets — about half of Davis's [f.o. * N] directed connections,
    because a real multi-fan-out net shares its source terminal across
    sinks while independent two-pin nets cannot.  The distribution's
    {e shape} is unaffected (see {!Extract.validate_against_davis}), and
    shape is what the rank pipeline consumes. *)

type net = { src : int; dst : int } [@@deriving show, eq]
(** A two-pin net between gate indices (gate i sits at grid position
    [(i mod width, i / width)]). *)

type t = {
  width : int;
  height : int;
  rent_p : float;
  fan_out : float;
  nets : net array;
}
[@@deriving show]

val gates : t -> int
(** [width * height]. *)

val position : t -> int -> int * int
(** Grid coordinates of a gate index.
    @raise Invalid_argument when out of range. *)

val generate :
  ?seed:int -> ?rent_p:float -> ?fan_out:float -> gates:int -> unit -> t
(** Generates a circuit with at least [gates] gates (rounded up to the
    enclosing power-of-four grid so quadrisection is exact).  Defaults:
    [seed = 42], [rent_p = 0.6], [fan_out = 3.0] — the paper's WLD
    parameters.  The net count is close to [alpha * (fan_out + 1) *
    gates / 2] (see the module preamble; tests bound the deviation).
    @raise Invalid_argument if [gates <= 0] or parameters are out of
    range. *)
