(** Unit conversion helpers.

    The library computes internally in SI units (meters, seconds, farads,
    ohms).  Technology tables and papers quote dimensions in micrometers and
    nanometers, frequencies in MHz/GHz, delays in ps/ns; these helpers keep
    conversion sites explicit and greppable. *)

val um : float -> float
(** [um x] is [x] micrometers in meters. *)

val nm : float -> float
(** [nm x] is [x] nanometers in meters. *)

val mm : float -> float
(** [mm x] is [x] millimeters in meters. *)

val to_um : float -> float
(** [to_um m] converts meters to micrometers. *)

val to_mm2 : float -> float
(** [to_mm2 a] converts an area in m^2 to mm^2. *)

val mhz : float -> float
(** [mhz x] is [x] MHz in Hz. *)

val ghz : float -> float
(** [ghz x] is [x] GHz in Hz. *)

val ps : float -> float
(** [ps x] is [x] picoseconds in seconds. *)

val ns : float -> float
(** [ns x] is [x] nanoseconds in seconds. *)

val to_ps : float -> float
(** [to_ps s] converts seconds to picoseconds. *)

val ff : float -> float
(** [ff x] is [x] femtofarads in farads. *)

val to_ff : float -> float
(** [to_ff f] converts farads to femtofarads. *)
