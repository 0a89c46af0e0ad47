(** High-level rank computation: from a design description straight to the
    paper's metric.

    This is the library's front door.  It wires together the Davis WLD
    generator, the architecture builder, bunching, and an algorithm
    choice: the optimal DP (default — the {!Rank_dp} kernel driven by
    {!Rank_grid}), {!Rank_greedy} (the Figure-2 baseline) or
    {!Rank_exact} (the paper-literal DP, small instances only). *)

type algo =
  | Dp  (** optimized optimal DP — the paper's metric *)
  | Greedy  (** suboptimal top-down baseline (Figure 2) *)
  | Exact of { r_steps : int }  (** paper-literal 4-D boolean DP *)
[@@deriving show, eq]

val problem_of_design :
  ?structure:Ir_ia.Arch.structure ->
  ?materials:Ir_ia.Materials.t ->
  ?target_model:Ir_delay.Target.t ->
  ?bunch_size:int ->
  Ir_tech.Design.t ->
  Ir_assign.Problem.t
(** Generates the design's Davis WLD, builds the architecture (baseline
    structure and materials by default) and bunches the instance
    (default bunch size 10000, the paper's). *)

val compute : ?algo:algo -> ?prune:bool -> Ir_assign.Problem.t -> Outcome.t
(** Runs the chosen algorithm (default [Dp]) on a prepared instance.
    [Dp] is a one-cell {!Rank_grid} at jobs 1 ({!Rank_grid.compute}).
    [prune] (default false) enables {!Rank_dp}'s admissible-bound
    pruning — byte-identical results, less work; [Dp] only.  The
    witness behind a [Dp] rank comes from {!Rank_grid.compute}. *)

val of_design :
  ?algo:algo ->
  ?structure:Ir_ia.Arch.structure ->
  ?materials:Ir_ia.Materials.t ->
  ?target_model:Ir_delay.Target.t ->
  ?bunch_size:int ->
  Ir_tech.Design.t ->
  Outcome.t
(** [problem_of_design] followed by [compute] — one call from design
    parameters to the rank. *)

val baseline_design : ?gates:int -> Ir_tech.Node.t -> Ir_tech.Design.t
(** The paper's Table 2 baseline design for a node: 1M gates (overridable),
    Rent p 0.6, 500 MHz, repeater fraction 0.4. *)
