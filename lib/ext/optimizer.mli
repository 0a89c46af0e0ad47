(** Direct optimization of interconnect architectures by rank — the
    paper's announced next step (Section 6: "we are also pursuing direct
    optimization of interconnect architectures according to our proposed
    metric, with the goal of evaluating ITRS and foundry BEOL
    architectures").

    The optimizer explores a candidate space around a node's Table 3
    stack: how many semi-global and global pairs to use, and geometry
    scalings (width+spacing pitch scaling, thickness scaling) of the
    semi-global and global classes — the same degrees of freedom the
    n-tier literature (Venkatesan et al., TVLSI 2001) optimizes — and
    evaluates each candidate with the full rank DP on a shared WLD. *)

type knob = {
  semi_global_pairs : int list;  (** candidate pair counts *)
  global_pairs : int list;
  pitch_scale : float list;  (** width+spacing multipliers for Mx and Mt *)
  thickness_scale : float list;  (** thickness multipliers for Mx and Mt *)
}

type candidate = {
  structure : Ir_ia.Arch.structure;
  pitch_scale : float;
  thickness_scale : float;
  outcome : Ir_core.Outcome.t;
}
[@@deriving show]

val optimize :
  ?jobs:int ->
  ?knobs:knob ->
  ?bunch_size:int ->
  ?target_model:Ir_delay.Target.t ->
  Ir_tech.Design.t ->
  candidate * candidate list
(** [optimize design] evaluates the whole candidate grid of [knobs]
    (default: pairs {1, 2} x {1}, pitch scales {0.8, 1.0, 1.25},
    thickness scales {0.8, 1.0, 1.25} — 36 candidates), skipping
    candidates the node's stack cannot provide, and returns the best
    candidate (largest rank; ties broken toward fewer pairs, then
    unscaled geometry) together with all evaluated candidates.
    The WLD is generated once and shared; candidate problems are built
    on the {!Ir_exec} pool ([?jobs]) and ranked as one
    {!Ir_core.Rank_grid.eval_batch} wavefront (pool parallelism inside
    each DP level, boundary hints threaded down the batch), reported in
    grid order, so the winner does not depend on the job count.
    @raise Invalid_argument if no candidate is buildable. *)

val scaled_stack :
  Ir_tech.Stack.t -> pitch_scale:float -> thickness_scale:float ->
  Ir_tech.Stack.t
(** The stack transform the optimizer applies: width and spacing of the
    Mx and Mt classes multiplied by [pitch_scale], their thickness by
    [thickness_scale]; M1 and via widths untouched. *)
