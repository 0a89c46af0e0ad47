(** Artifact export: write experiment results to a directory.

    The bench harness prints its tables; this module also persists them —
    one CSV per Table 4 column, a cross-node CSV and the power frontier —
    so downstream plotting or regression-diffing does not have to re-run
    hour-scale sweeps.  Output directories are created
    recursively as needed; existing files are overwritten. *)

val ensure_dir : string -> (unit, string) result
(** Creates [dir] and any missing parents ([mkdir -p]); tolerates a
    concurrent creator.  [Error] names the path when a non-directory is
    in the way. *)

val sweep_csv_path : dir:string -> Table4.sweep -> string
(** The file a sweep will be written to: [<dir>/table4_<name>.csv].  The
    sweep name is lowercased, so names differing only in case collide —
    {!write_sweeps} rejects such batches. *)

val write_sweeps : dir:string -> Table4.sweep list -> (string list, string) result
(** Writes each sweep's paper-vs-measured CSV; returns the written paths
    (or the first filesystem error).  Fails up front, before writing
    anything, if two sweeps in the batch would export to the same file
    (see {!sweep_csv_path}). *)

val write_cross : dir:string -> Cross_node.cell list -> (string, string) result
(** Writes [<dir>/cross_node.csv]. *)

val power_pareto_csv_path : dir:string -> string
(** The file {!write_power_pareto} writes: [<dir>/power_pareto.csv]. *)

val write_power_pareto :
  dir:string -> Power_pareto.result -> (string, string) result
(** Writes the rank-vs-power frontier as one CSV row per budget point
    (fraction, budget and witness watts, rank, normalized rank,
    boundary, flags).  [dune runtest] regenerates the committed golden
    copy under [results/] and diffs it. *)
