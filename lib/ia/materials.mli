(** Material and coupling assumptions of an interconnect architecture.

    These are the knobs the paper's Table 4 sweeps: ILD permittivity [k]
    (column K) and Miller coupling factor (column M), plus the capacitance
    model and an optional resistivity override for material studies
    (e.g. Cu vs Al). *)

type t = {
  k : float;  (** relative ILD permittivity (baseline 3.9, SiO2) *)
  miller : float;  (** Miller coupling factor (baseline 2.0) *)
  cap_model : Ir_rc.Capacitance.model;
  rho : float option;  (** metal resistivity override, Ohm-m *)
}
[@@deriving show, eq]

val default : t
(** The paper's Table 2 baseline: [k = 3.9], [miller = 2.0], Sakurai
    capacitance model, node-default resistivity. *)

val v :
  ?k:float ->
  ?miller:float ->
  ?cap_model:Ir_rc.Capacitance.model ->
  ?rho:float ->
  unit ->
  t
(** @raise Invalid_argument if [k <= 0], [miller < 0] or [rho <= 0]. *)

val with_k : t -> float -> t

val resistivity : t -> Ir_tech.Node.t -> float
(** The override if present, otherwise {!Ir_tech.Node.resistivity}. *)
