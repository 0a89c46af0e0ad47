(** Instance coarsening: bunching and binning (paper Section 5.1).

    The rank DP is far too expensive to run one wire at a time on
    million-gate WLDs, so the paper assigns wires in {e bunches} of uniform
    length (bunch size 10000 in its experiments).  The rank error introduced
    is at most the size of the largest bunch.  A second, orthogonal
    {e binning} reduction (the paper's footnote 7) replaces groups of nearby
    lengths by their mean. *)

type bunches = { lengths : float array; counts : int array }
(** Bunches as two columns: bunch [b] holds [counts.(b)] wires of length
    [lengths.(b)]. *)

val bunch : bunch_size:int -> pitch:float -> Dist.t -> bunches
(** [bunch ~bunch_size ~pitch d] scales every length of [d] by [pitch]
    (gate pitches to meters, say), merges bins whose scaled lengths are
    equal, and splits every bin into bunches of at most [bunch_size]
    wires of identical length.  Bunches come longest bin first (the
    assignment order of the rank algorithms); within a bin the partial
    bunch, if any, comes first and the full ones follow — e.g. a 100-wire
    bin at bunch size 40 becomes bunches of 20, 40 and 40.  That order
    reaches the DP's boundary indices, so it is part of the contract.
    Total wire count is preserved exactly, and every scaled length is
    the float [l *. pitch], so the result equals bunching
    [Dist.map_length (fun l -> l *. pitch) d] bit for bit.  It reads
    [d]'s columns in place and allocates only the two it returns.
    @raise Invalid_argument if [bunch_size <= 0], or, with
    {!Dist.check_length}'s errors, if a scaled length is not positive
    and finite. *)

val bunch_count : bunch_size:int -> Dist.t -> int
(** Number of bunches [bunch ~bunch_size ~pitch:1.0] would produce,
    without building them: per bin the ceiling of count / [bunch_size],
    computed without overflow, and the sum saturates at [max_int].  At
    any other pitch it is an upper bound, since scaling can only merge
    bins.
    @raise Invalid_argument if [bunch_size <= 0]. *)

val bin : group:int -> Dist.t -> Dist.t
(** [bin ~group d] merges every run of [group] consecutive bins into one bin
    whose length is the count-weighted mean of the group and whose count is
    the group's total — footnote 7's reduction (which uses the simple mean;
    the weighted mean conserves total wire length better and coincides for
    equal counts).  Total wire count is preserved exactly.
    @raise Invalid_argument if [group <= 0]. *)

val max_bunch_error : bunch_size:int -> Dist.t -> int
(** Upper bound on the rank error introduced by bunching: the size of the
    largest bunch actually formed. *)
