(** Physical constants used throughout the interconnect models.

    All values are in SI units.  The constants here are process-independent;
    process-dependent values (resistivity after barrier/size effects, device
    parasitics, ...) live in {!module:Ir_tech}. *)

val eps0 : float
(** Vacuum permittivity, in F/m. *)

val rho_cu_bulk : float
(** Bulk resistivity of copper at room temperature, in Ohm-m. *)

val rho_al_bulk : float
(** Bulk resistivity of aluminum at room temperature, in Ohm-m.  The 180nm
    node of the paper's era used Al metallization. *)

val k_sio2 : float
(** Relative permittivity of undoped silicon dioxide.  This is the paper's
    baseline ILD permittivity (Table 2, [k] = 3.9). *)
