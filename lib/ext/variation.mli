(** Parameter-sensitivity analysis of the rank metric.

    The paper's Section 3 asks for a metric "sensitive to interconnect
    geometric parameters as well as material properties" — which cuts
    both ways: a reproduction whose calibrated constants are uncertain
    (DESIGN.md §5) should report how much that uncertainty moves the
    metric.  This module runs a seeded Monte-Carlo over multiplicative
    perturbations of the electrical inputs (ILD permittivity, Miller
    factor, resistivity, device r_o/c_o) and summarizes the resulting
    rank distribution.

    Geometry and the repeater budget are held at nominal: the study
    isolates the constants the paper does not publish from the ones it
    does. *)

type spec = {
  sigma_k : float;  (** relative std-dev of the permittivity, e.g. 0.05 *)
  sigma_miller : float;
  sigma_rho : float;
  sigma_device : float;  (** applied to r_o and c_o independently *)
}
[@@deriving show, eq]

type summary = {
  nominal : float;  (** normalized rank with unperturbed parameters *)
  mean : float;
  std : float;
  min : float;
  max : float;
  samples : int;
}
[@@deriving show]

val run :
  ?spec:spec ->
  ?samples:int ->
  ?seed:int ->
  ?bunch_size:int ->
  Ir_tech.Design.t ->
  summary
(** [run design] draws [samples] (default 25) parameter sets perturbed by
    [spec] (default 5% on every knob; log-normal-ish factors
    [exp (sigma * gaussian)]), recomputes the rank for each, and
    summarizes.  The WLD is generated once.
    @raise Invalid_argument if [samples <= 0] or any sigma is
    negative. *)
