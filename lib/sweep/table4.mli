(** The paper's Table 4: variation of (normalized) rank with ILD
    permittivity K, Miller coupling factor M, target clock frequency C and
    maximum repeater fraction R, for a baseline design.

    Each sweep varies one parameter over the paper's exact grid while
    holding the Table 2 baseline for the rest, recomputing the optimal
    rank at every point.  The WLD is generated — and bunched — once per
    config and shared across every point (bunching depends only on the
    design's gate pitch, not on the materials, clock or budget a point
    varies).

    With the DP algorithm the whole run is dispatched as one batch
    through {!Ir_core.Rank_grid.evaluate}: every (materials, clock)
    plane's phase-A tables are built in a single level-synchronous
    wavefront — the {!Ir_exec} domain pool ([?jobs], default
    {!Ir_exec.default_jobs}) parallelizes {e inside} each level, not
    across points — and the R column, the C column's base point and any
    base-valued K/M point all share one resident plane.  A finite
    [power_budget] caps every point's repeater area at its power
    equivalent ({!Ir_assign.Problem.budget}); nothing else changes.
    Non-DP algorithms have no shared tables and compute each
    point independently with {!Ir_core.Rank.compute} on the pool.

    Either way {!all} fuses the four columns into one run, rows come
    back in grid order with identical ranks whatever the job count, and
    {!Ir_obs} counters are jobs-invariant, so sequential and parallel
    runs produce byte-identical tables (only the [seconds] timings
    differ; grid rows report the run's cost amortized evenly).  The
    sweep tests check every row against an unshared evaluation of the
    point's own problem and against frozen values. *)

type row = {
  param : float;
  outcome : Ir_core.Outcome.t;
  seconds : float;  (** wall time of this rank computation *)
}
[@@deriving show]

type sweep = {
  name : string;  (** e.g. ["K"] *)
  legend : string;  (** e.g. ["ILD permittivity"] *)
  rows : row list;
  paper : (float * float) list;  (** published values for this column *)
}

type config = {
  design : Ir_tech.Design.t;
  structure : Ir_ia.Arch.structure;
  bunch_size : int;
  target_model : Ir_delay.Target.t;
  algo : Ir_core.Rank.algo;
  activity : float;
      (** switching activity factor of the repeater power model *)
  power_budget : float;
      (** repeater power budget, watts; [infinity] (the default) leaves
          every point's area budget alone.  A finite budget caps each
          point's repeater area at [power_budget / kappa] (kappa at that
          point's clock) and requires the DP algorithm. *)
}

val default_config : config
(** The paper's Table 2 baseline: 130nm, 1M gates, p = 0.6, 500 MHz,
    repeater fraction 0.4, bunch size 10000, linear targets, optimal DP,
    default activity, unconstrained power. *)

val with_design : config -> Ir_tech.Design.t -> config

val baseline_problem : ?activity:float -> config -> Ir_assign.Problem.t
(** The config's baseline assignment instance (default materials, the
    config's own WLD and bunching) — the base cell every sweep column
    perturbs, exposed so companion experiments such as
    {!Power_pareto.run} anchor on exactly the grid's base point.
    [?activity] sets the power model's switching activity factor
    (default {!Ir_assign.Problem.default_activity}). *)

(** Every sweep entry point takes [?prune] (default false):
    {!Ir_core.Rank_grid.evaluate}'s admissible-bound pruning, DP only.
    Results are byte-identical either way — the flag only moves work
    counters. *)

val k_sweep : ?jobs:int -> ?prune:bool -> ?config:config -> unit -> sweep
(** ILD permittivity from 3.9 down to 1.8 in steps of 0.1 (Table 4 K). *)

val m_sweep : ?jobs:int -> ?prune:bool -> ?config:config -> unit -> sweep
(** Miller factor from 2.0 down to 1.0 in steps of 0.05 (Table 4 M). *)

val c_sweep : ?jobs:int -> ?prune:bool -> ?config:config -> unit -> sweep
(** Clock from 0.5 GHz to 1.7 GHz in steps of 0.1 GHz (Table 4 C). *)

val r_sweep : ?jobs:int -> ?prune:bool -> ?config:config -> unit -> sweep
(** Repeater fraction from 0.1 to 0.5 in steps of 0.1 (Table 4 R). *)

val all : ?jobs:int -> ?prune:bool -> ?config:config -> unit -> sweep list
(** The four columns in the paper's order: K, M, C, R — fused into a
    single batch (one grid wavefront, or one pool run of independent
    points for non-DP algorithms) so the tail of one column cannot idle
    workers the next could use. *)

val normalized : sweep -> (float * float) list
(** (param, normalized rank) pairs of the measured rows. *)
