(** Discrete wire length distributions: bins [(length, count)], lengths
    in gate pitches, sorted by increasing length and held as two columns
    (float lengths, int counts); {!bins} and [show] present them as
    records.  The paper consumes the WLD by {e non-increasing} length
    (rank 1 = longest wire); {!to_desc_list} provides that view. *)

type bin = { length : float;  (** wire length in gate pitches *)
             count : int  (** number of wires of this length *) }
[@@deriving show, eq]

type t [@@deriving show, eq]

val of_bins : bin list -> t
(** Builds a distribution from bins; bins with [count = 0] are dropped, bins
    with equal length are merged, and the result is sorted ascending.
    @raise Invalid_argument on negative counts or lengths that are not
    positive and finite (NaN and [infinity] included). *)

val of_columns : float array -> int array -> t
(** [of_columns lengths counts] has bin [i] = [(lengths.(i), counts.(i))]
    for columns already canonical: positive counts, strictly ascending
    lengths.  It keeps both arrays; the caller must not change them.
    @raise Invalid_argument with {!of_bins}' errors on a bad bin, or on
    columns of unequal size, an empty bin or lengths that do not ascend. *)

val check_length : float -> unit
(** The length check of {!of_bins}, with its errors.
    @raise Invalid_argument if the length is not positive and finite. *)

val bins : t -> bin array
(** The bins, ascending by length.  The array is fresh. *)

val n_bins : t -> int
val bin_length : t -> int -> float
val bin_count : t -> int -> int
(** Length and count of bin [i], ascending, without a copy. *)

val total : t -> int
(** Total number of wires. *)

val is_empty : t -> bool

val l_max : t -> float
(** Length of the longest wire.  @raise Invalid_argument when empty. *)

val l_min : t -> float
(** Length of the shortest wire.  @raise Invalid_argument when empty. *)

val mean_length : t -> float
(** Count-weighted mean length (gate pitches). *)

val total_wire_length : t -> float
(** Sum of all wire lengths (gate pitches). *)

val count_at_least : t -> float -> int
(** [count_at_least t l] is the number of wires of length >= [l]. *)

val length_at_rank : t -> int -> float
(** [length_at_rank t r] is the length of the wire of rank [r] (1 = longest).
    @raise Invalid_argument if [r] is outside [1, total t]. *)

val to_desc_list : t -> bin list
(** Bins from longest to shortest. *)

val map_length : (float -> float) -> t -> t
(** Applies a strictly monotone transformation to every bin length (e.g.
    pitch-to-meter conversion). *)

val check_invariants : t -> (unit, string) result
(** Validates sortedness, positive finite lengths and counts (tests). *)
