(** Interconnect architectures: an ordered set of layer-pairs over a die.

    The architecture fixes everything the rank computation needs about the
    target stack: the layer-pairs top-down (longest wires go to the topmost
    pair), their capacities, the via-blockage accounting, and the
    repeater-area budget.

    {b Capacity.} Each layer-pair consists of two routing layers of die
    area [A_d] each; an L-shaped wire of length [l] puts one segment on
    each layer and consumes [l * (W_j + S_j)] of the pair's total
    [2 * A_d * utilization] routing area (paper Section 3's assignment
    arithmetic, with both layers of the pair available).

    {b Via blockage.} Every wire connects its endpoints down to gates, so a
    wire assigned to pair [j] blocks [vias_per_wire] via pads on every pair
    strictly below [j]; every repeater inserted in a wire of pair [j]
    similarly blocks one via-stack pad on every pair below (footnote 1 and
    Section 4.2/4.3 of the paper, after Chen–Davis–Meindl). *)

type structure = {
  local_pairs : int;
  semi_global_pairs : int;
  global_pairs : int;
}
[@@deriving show, eq]

val baseline_structure : structure
(** The paper's Table 2 baseline: 2 semi-global pairs and 1 global pair
    plus one local pair (Table 3 specifies M1 geometry; the local pair
    carries the short-wire mass of the WLD). *)

type t = {
  design : Ir_tech.Design.t;
  stack : Ir_tech.Stack.t;
  device : Ir_tech.Device.t;
  materials : Materials.t;
  structure : structure;
  pairs : Layer_pair.t array;  (** index 0 = topmost pair *)
  die_area : float;  (** A_d, m^2 *)
  utilization : float;  (** routable fraction of each layer *)
  vias_per_wire : int;  (** v: via pads a wire blocks per pair below *)
  via_model : Via_model.t;  (** how much area one via stack blocks *)
}
[@@deriving show]

val make :
  ?structure:structure ->
  ?materials:Materials.t ->
  ?device:Ir_tech.Device.t ->
  ?stack:Ir_tech.Stack.t ->
  ?utilization:float ->
  ?vias_per_wire:int ->
  ?via_model:Via_model.t ->
  design:Ir_tech.Design.t ->
  unit ->
  t
(** Builds the architecture for the design's node.  Defaults:
    {!baseline_structure}, {!Materials.default}, node-default device,
    the node's Table 3 stack (override [stack] for synthetic studies),
    [utilization = 1.0], [vias_per_wire = 3] (two endpoint via stacks plus
    the L-corner via), [via_model = Pad].
    @raise Invalid_argument if the structure requests more pairs of a class
    than the node's stack provides, or requests no pairs at all. *)

val custom :
  ?materials:Materials.t ->
  ?device:Ir_tech.Device.t ->
  ?utilization:float ->
  ?vias_per_wire:int ->
  ?via_model:Via_model.t ->
  design:Ir_tech.Design.t ->
  pairs:(Ir_tech.Metal_class.t * Ir_tech.Geometry.t) list ->
  unit ->
  t
(** Builds an architecture from an explicit top-down list of layer-pair
    geometries — each pair gets its own geometry, unconstrained by the
    node's Table 3 stack.  Used by the n-tier generator and the direct
    optimizer; the class labels are for reporting only.
    @raise Invalid_argument on an empty pair list. *)

val pair_count : t -> int

val pair : t -> int -> Layer_pair.t
(** [pair t j] is the [j]-th pair from the top, [0 <= j < pair_count t]. *)

val pair_capacity : t -> float
(** Routing area available on each pair before via blockage:
    [2 * die_area * utilization], m^2. *)

val repeater_budget : t -> float
(** The design's repeater-area budget A_R, m^2. *)

val blocked_area : t -> pair_index:int -> wires_above:int -> repeaters_above:int -> float
(** Total via-blocked area on pair [pair_index] given the number of wires
    and repeaters living on pairs strictly above it: the paper's
    [A_v,j-1 + A_u,j-1]. *)

val with_materials : t -> Materials.t -> t
(** Rebuilds the architecture (and all derived electricals) with different
    materials; design, structure, device and every pair's class and
    geometry are preserved, so an architecture from {!custom} stays the
    one [custom] builds at the new materials. *)

val with_design : t -> Ir_tech.Design.t -> t
(** Rebuilds the architecture for a modified design (e.g. different clock
    or repeater fraction), keeping its pairs' classes and geometries. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line-per-pair summary: class, pitch, r̄, c̄, s_opt. *)
