(** Witness extraction: the actual optimal assignment behind a rank.

    {!Rank.compute} returns only the metric; this module takes the
    witness {!Rank_grid.compute} certifies the rank with and expands it — which bunch
    interval landed on which layer-pair, with how many repeaters — plus
    per-pair utilization accounting.  Used by the reporting CLI, the
    examples, and the tests (which verify the witness actually satisfies
    every constraint the rank claims). *)

type pair_load = {
  pair : int;  (** layer-pair index, 0 = topmost *)
  bunch_lo : int;  (** meeting bunches [bunch_lo .. bunch_hi) on this pair *)
  bunch_hi : int;
  wires : int;  (** wires of those bunches *)
  repeaters : int;  (** repeaters inserted in them *)
  repeater_area : float;  (** m^2 *)
  routing_area : float;  (** routing area consumed by them, m^2 *)
}
[@@deriving show, eq]

type t = {
  outcome : Outcome.t;
  meeting : pair_load list;  (** loads of the meeting prefix, top-down *)
  overflow : Ir_assign.Greedy_fill.placement list;
      (** capacity-only placements of the non-meeting suffix *)
}
[@@deriving show]

val extract : ?max_pareto:int -> Ir_assign.Problem.t -> t
(** Computes the rank and a witness assignment achieving it.  The
    witness's rank always equals {!Rank.compute}'s. *)

val check : Ir_assign.Problem.t -> t -> (unit, string) result
(** Independent validation of a witness: interval structure (contiguous,
    top-down, longest first), per-wire delay targets met with the claimed
    repeaters, repeater budget respected, per-pair capacity with via
    blockage respected, and every wire placed.  The property tests run
    this against {!extract}. *)

val utilization : Ir_assign.Problem.t -> t -> (int * float) list
(** Fraction of each pair's capacity used (routing + blockage), from the
    witness. *)

val pp_human : Ir_assign.Problem.t -> Format.formatter -> t -> unit
(** Table: per pair, the wire-length range, wires, repeaters and
    utilization. *)
