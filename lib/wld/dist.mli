(** Discrete wire length distributions.

    A distribution is a set of bins [(length, count)], lengths expressed in
    gate pitches, kept sorted by increasing length.  The paper consumes the
    WLD sorted by {e non-increasing} length (rank 1 = longest wire);
    {!fold_desc} and {!to_desc_list} provide that view. *)

type bin = { length : float;  (** wire length in gate pitches *)
             count : int  (** number of wires of this length *) }
[@@deriving show, eq]

type t [@@deriving show, eq]

val of_bins : bin list -> t
(** Builds a distribution from bins; bins with [count = 0] are dropped, bins
    with equal length are merged, and the result is sorted ascending.
    @raise Invalid_argument on negative counts or lengths that are not
    positive and finite (NaN and [infinity] included). *)

val bins : t -> bin array
(** The bins, ascending by length.  The array is fresh. *)

val total : t -> int
(** Total number of wires. *)

val n_bins : t -> int

val l_max : t -> float
(** Length of the longest wire (gate pitches).
    @raise Invalid_argument on an empty distribution. *)

val l_min : t -> float
(** Length of the shortest wire (gate pitches).
    @raise Invalid_argument on an empty distribution. *)

val is_empty : t -> bool

val mean_length : t -> float
(** Count-weighted mean length (gate pitches). *)

val total_wire_length : t -> float
(** Sum of all wire lengths (gate pitches). *)

val count_at_least : t -> float -> int
(** [count_at_least t l] is the number of wires of length >= [l]. *)

val length_at_rank : t -> int -> float
(** [length_at_rank t r] is the length of the wire of rank [r] (1 = longest).
    @raise Invalid_argument if [r] is outside [1, total t]. *)

val fold_desc : (acc:'a -> length:float -> count:int -> 'a) -> 'a -> t -> 'a
(** Folds over bins from longest to shortest. *)

val to_desc_list : t -> bin list
(** Bins from longest to shortest. *)

val map_length : (float -> float) -> t -> t
(** Applies a strictly monotone transformation to every bin length (e.g.
    pitch-to-meter conversion). *)

val check_invariants : t -> (unit, string) result
(** Validates sortedness, positive finite lengths and positive counts;
    used by property tests. *)
