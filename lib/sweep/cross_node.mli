(** Cross-node, cross-size rank comparison.

    The paper's Section 5.2 mentions baseline experiments with 1M gates at
    180nm, 1M at 130nm and 4M at 90nm (only the 130nm/1M column is
    printed); Section 5 also names 1M/4M/10M-gate WLDs.  This module runs
    the baseline rank for any (node, gate-count) matrix so those
    unreported baselines can be regenerated and compared. *)

type cell = {
  node : Ir_tech.Node.t;
  gates : int;
  outcome : Ir_core.Outcome.t;
  seconds : float;
}
[@@deriving show]

val run :
  ?jobs:int ->
  ?probe_fan:int ->
  ?bunch_size:int ->
  ?structure:Ir_ia.Arch.structure ->
  ?matrix:(Ir_tech.Node.t * int) list ->
  unit ->
  cell list
(** Computes the baseline (Table 2 parameters) rank for every [matrix]
    entry (default: the paper's named baselines (180nm, 1M), (130nm, 1M)
    and (90nm, 4M)).  Gate counts of 10M are supported but take a few
    seconds each.  Problems are built on the {!Ir_exec} pool ([?jobs],
    heaviest design first) and then ranked as {e one}
    {!Ir_core.Rank_grid.eval_batch} wavefront — the pool parallelizes
    inside each DP level rather than across whole cells, so the largest
    design never runs alone on a drained pool.  The returned list keeps
    the matrix order and is independent of the job count (timings
    aside; the batched search cost is reported amortized evenly).

    [probe_fan] is forwarded to each cell's boundary search: the
    batch's phase B is a sequential hint chain, so by default every
    search fans out over the whole effective pool with speculative
    concurrent probes.  Results are identical for any fan; the probe
    {e counters} scale with it, so pass [~probe_fan:1] when counter
    totals must not depend on the machine. *)
