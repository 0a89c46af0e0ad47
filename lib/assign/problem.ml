type t = {
  arch : Ir_ia.Arch.t;
  target_model : Ir_delay.Target.t;
  noise_limit : float option;
  bunches : Ir_wld.Dist.bin array;  (* non-increasing length, meters *)
  targets : float array;  (* per-bunch target delay, seconds *)
  wire_prefix : int array;  (* wire_prefix.(i) = wires in bunches [0..i) *)
  (* Per pair j, prefix tables over bunches:
     area_prefix.(j).(i)   : routing area of bunches [0..i) on pair j
     eta.(j).(b)           : minimal per-wire repeater count, -1 = infeasible
     rep_area_prefix.(j).(i), rep_count_prefix.(j).(i) :
       repeater area / count to meet targets for bunches [0..i)
       (infeasible bunches contribute 0 and are masked by bad_prefix)
     bad_prefix.(j).(i)    : number of infeasible bunches in [0..i)

     Repeater counts are integers by construction (count * eta summed over
     bunches), so the count prefix is kept as an int array: differencing a
     float prefix and truncating back with int_of_float can lose a unit to
     cancellation (6.9999... -> 6), under-counting repeaters and hence the
     via blockage they charge below. *)
  area_prefix : float array array;
  eta : int array array;
  rep_area_prefix : float array array;
  rep_count_prefix : int array array;
  bad_prefix : int array array;
  via_pad : float array;
      (* per pair: the area one via stack blocks on it, which reads only
         the via model and the pair's geometry *)
  (* Repeater power model.  A repeater of size s burns
     s * (activity * c_o * Vdd^2 * f + leakage_per_size) watts and
     occupies s * A_dev of silicon, so power is kappa times repeater area
     on every pair.  A power budget P is therefore an area cap:
     area_cap = max { a : kappa *. a <= P } (infinity when P is), and
     [budget] is the smaller of the area budget and the cap. *)
  activity : float;
  power_budget : float;
  kappa : float;  (* watts per m^2 of repeater area *)
  area_cap : float;
}

let arch t = t.arch
let n_bunches t = Array.length t.bunches
let n_pairs t = Ir_ia.Arch.pair_count t.arch
let total_wires t = t.wire_prefix.(n_bunches t)
let bunch_length t b = t.bunches.(b).Ir_wld.Dist.length
let bunch_count t b = t.bunches.(b).Ir_wld.Dist.count
(* The accessors marked [@inline] run per (source, destination) in the
   phase-A DP loop: without flambda, ocamlopt returns a float from a
   cross-module call boxed unless the call is inlined. *)
let[@inline] wires_before t i = t.wire_prefix.(i)
let target t b = t.targets.(b)
let capacity t = Ir_ia.Arch.pair_capacity t.arch
let budget t =
  let a = Ir_ia.Arch.repeater_budget t.arch in
  if t.area_cap < a then t.area_cap else a

(* [Ir_ia.Arch.blocked_area]'s expression, with the pad read from
   [via_pad] instead of derived per call. *)
let[@inline] blocked t ~pair ~wires_above ~reps_above =
  if wires_above < 0 || reps_above < 0 then
    invalid_arg "Problem.blocked: negative counts";
  (float_of_int (t.arch.Ir_ia.Arch.vias_per_wire * wires_above)
  +. float_of_int reps_above)
  *. t.via_pad.(pair)

let[@inline] interval_area t ~pair ~lo ~hi =
  t.area_prefix.(pair).(hi) -. t.area_prefix.(pair).(lo)

let eta_min t ~pair ~bunch =
  let e = t.eta.(pair).(bunch) in
  if e < 0 then None else Some e

let[@inline] meeting_feasible t ~pair ~lo ~hi =
  t.bad_prefix.(pair).(hi) - t.bad_prefix.(pair).(lo) = 0

let[@inline] meeting_area t ~pair ~lo ~hi =
  t.rep_area_prefix.(pair).(hi) -. t.rep_area_prefix.(pair).(lo)

let[@inline] meeting_count t ~pair ~lo ~hi =
  t.rep_count_prefix.(pair).(hi) - t.rep_count_prefix.(pair).(lo)

let activity t = t.activity
let power_budget t = t.power_budget
let kappa t = t.kappa

let meeting_cost t ~pair ~lo ~hi =
  if meeting_feasible t ~pair ~lo ~hi then
    Some (meeting_area t ~pair ~lo ~hi, meeting_count t ~pair ~lo ~hi)
  else None

let wire_delay_on_pair t ~pair ~eta l =
  let p = Ir_ia.Arch.pair t.arch pair in
  Ir_delay.Model.wire_delay t.arch.Ir_ia.Arch.device p.Ir_ia.Layer_pair.line
    ~s:p.Ir_ia.Layer_pair.s_opt ~eta l

let targets_for ~arch ~target_model bunches =
  let clock = arch.Ir_ia.Arch.design.Ir_tech.Design.clock in
  let l_max = bunches.(0).Ir_wld.Dist.length in
  Array.map
    (fun (b : Ir_wld.Dist.bin) ->
      Ir_delay.Target.delay target_model ~clock ~l_max b.length)
    bunches

(* Routing-area prefixes: per pair, geometry-only — independent of the
   targets (clock), the repeater budget and the noise limit. *)
let area_tables ~arch bunches =
  let n = Array.length bunches in
  let m = Ir_ia.Arch.pair_count arch in
  let area_prefix = Array.make_matrix m (n + 1) 0.0 in
  for j = 0 to m - 1 do
    let p = Ir_ia.Arch.pair arch j in
    for b = 0 to n - 1 do
      let { Ir_wld.Dist.length = l; count } = bunches.(b) in
      area_prefix.(j).(b + 1) <-
        area_prefix.(j).(b)
        +. (float_of_int count *. Ir_ia.Layer_pair.wire_area p l)
    done;
    (* Finite lengths can still sum past [max_float]; an infinite entry
       would make interval areas inf - inf = NaN. *)
    if area_prefix.(j).(n) = infinity then
      invalid_arg "Problem: total routing area overflows"
  done;
  area_prefix

let via_pads arch =
  Array.init (Ir_ia.Arch.pair_count arch) (fun j ->
      Ir_ia.Via_model.blocked_area_per_via arch.Ir_ia.Arch.via_model
        (Ir_ia.Arch.pair arch j).Ir_ia.Layer_pair.geom)

(* Repeater tables: per pair, the minimal per-wire count meeting each
   bunch's target, with area/count/infeasibility prefixes.  Depends on the
   targets (hence the clock) and the noise limit, but not on the repeater
   budget. *)
let repeater_tables ~arch ~noise_limit ~targets bunches =
  let n = Array.length bunches in
  let m = Ir_ia.Arch.pair_count arch in
  let device = arch.Ir_ia.Arch.device in
  let eta = Array.make_matrix m n (-1) in
  let rep_area_prefix = Array.make_matrix m (n + 1) 0.0 in
  let rep_count_prefix = Array.make_matrix m (n + 1) 0 in
  let bad_prefix = Array.make_matrix m (n + 1) 0 in
  for j = 0 to m - 1 do
    let p = Ir_ia.Arch.pair arch j in
    let line = p.Ir_ia.Layer_pair.line in
    let s = p.Ir_ia.Layer_pair.s_opt in
    let rep_area = p.Ir_ia.Layer_pair.repeater_area in
    (* A pair failing its crosstalk budget cannot host meeting wires: the
       charge-sharing ratio is length-independent, so noise is a per-pair
       verdict (see Ir_rc.Noise). *)
    let materials = arch.Ir_ia.Arch.materials in
    let noisy =
      match noise_limit with
      | None -> false
      | Some limit ->
          not
            (Ir_rc.Noise.passes ~k:materials.Ir_ia.Materials.k
               ~miller:materials.Ir_ia.Materials.miller ~limit
               p.Ir_ia.Layer_pair.geom)
    in
    (* The bunches of one split bin share their length and target, so
       bunch [b] takes bunch [b - 1]'s verdict when both match: the
       verdict is a function of those two floats. *)
    let need = ref None in
    for b = 0 to n - 1 do
      let { Ir_wld.Dist.length = l; count } = bunches.(b) in
      let same_as_previous =
        b > 0
        && l = bunches.(b - 1).Ir_wld.Dist.length
        && targets.(b) = targets.(b - 1)
      in
      if not (noisy || same_as_previous) then
        need :=
          Ir_delay.Model.repeaters_needed device line ~s ~target:targets.(b)
            l;
      match !need with
      | Some e ->
          eta.(j).(b) <- e;
          rep_area_prefix.(j).(b + 1) <-
            rep_area_prefix.(j).(b)
            +. (float_of_int count *. float_of_int e *. rep_area);
          rep_count_prefix.(j).(b + 1) <-
            rep_count_prefix.(j).(b) + (count * e);
          bad_prefix.(j).(b + 1) <- bad_prefix.(j).(b)
      | None ->
          rep_area_prefix.(j).(b + 1) <- rep_area_prefix.(j).(b);
          rep_count_prefix.(j).(b + 1) <- rep_count_prefix.(j).(b);
          bad_prefix.(j).(b + 1) <- bad_prefix.(j).(b) + 1
    done
  done;
  (eta, rep_area_prefix, rep_count_prefix, bad_prefix)

let default_activity = 0.15

(* Watts per m^2 of repeater area: a size-s repeater presents s * c_o of
   input capacitance, toggled at activity * f_clock, plus leakage
   proportional to s, over s * A_dev of silicon — s cancels, so one
   constant serves every pair (DESIGN section 17). *)
let kappa_of ~arch ~activity =
  let design = arch.Ir_ia.Arch.design in
  let node = design.Ir_tech.Design.node in
  let vdd = Ir_tech.Node.vdd node in
  let device = arch.Ir_ia.Arch.device in
  ((activity *. device.Ir_tech.Device.c_o *. vdd *. vdd
   *. design.Ir_tech.Design.clock)
  +. Ir_tech.Node.leakage_per_size node)
  /. device.Ir_tech.Device.area

(* The largest area whose reported power [kappa *. a] is within [p].
   [p /. kappa] can land one ulp either side of it, so step to the exact
   boundary: rounding is monotone, so the admissible areas are an
   interval and a witness reported at [p] watts stays admissible at [p]. *)
let area_cap_of ~kappa p =
  if p = infinity then infinity
  else begin
    let b = ref (p /. kappa) in
    while kappa *. !b > p do
      b := Float.pred !b
    done;
    while kappa *. Float.succ !b <= p do
      b := Float.succ !b
    done;
    !b
  end

let with_power t ~activity ~power_budget =
  let kappa = kappa_of ~arch:t.arch ~activity in
  {
    t with
    activity;
    power_budget;
    kappa;
    area_cap = area_cap_of ~kappa power_budget;
  }

let build ?(activity = default_activity) ?(power_budget = infinity) ~arch
    ~target_model ~noise_limit bunches =
  let n = Array.length bunches in
  if n = 0 then invalid_arg "Problem: empty instance";
  Array.iter
    (fun (b : Ir_wld.Dist.bin) ->
      if b.count <= 0 then invalid_arg "Problem: non-positive bunch count";
      if not (b.length > 0.0) then
        invalid_arg "Problem: non-positive bunch length";
      if b.length = infinity then
        invalid_arg "Problem: infinite bunch length")
    bunches;
  for i = 1 to n - 1 do
    if bunches.(i).Ir_wld.Dist.length > bunches.(i - 1).Ir_wld.Dist.length
    then invalid_arg "Problem: bunches must be sorted by non-increasing length"
  done;
  if not (activity > 0.0 && activity <= 1.0) then
    invalid_arg "Problem: activity must be in (0, 1]";
  if not (power_budget > 0.0) then
    invalid_arg "Problem: power budget must be positive";
  let targets = targets_for ~arch ~target_model bunches in
  let wire_prefix = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    wire_prefix.(i + 1) <- wire_prefix.(i) + bunches.(i).Ir_wld.Dist.count
  done;
  let area_prefix = area_tables ~arch bunches in
  let eta, rep_area_prefix, rep_count_prefix, bad_prefix =
    repeater_tables ~arch ~noise_limit ~targets bunches
  in
  with_power ~activity ~power_budget
  {
    arch;
    target_model;
    noise_limit;
    bunches;
    targets;
    wire_prefix;
    area_prefix;
    eta;
    rep_area_prefix;
    rep_count_prefix;
    bad_prefix;
    via_pad = via_pads arch;
    activity;
    power_budget;
    kappa = 0.0;
    area_cap = infinity;
  }

let of_bunches ?(target_model = Ir_delay.Target.Linear) ?noise_limit
    ?activity ?power_budget ~arch ~bunches () =
  build ?activity ?power_budget ~arch ~target_model ~noise_limit
    (Array.copy bunches)

let make ?(target_model = Ir_delay.Target.Linear) ?noise_limit ?activity
    ?power_budget ?(bunch_size = 10000) ~arch ~wld () =
  if Ir_wld.Dist.is_empty wld then invalid_arg "Problem.make: empty WLD";
  let pitch =
    Ir_tech.Design.effective_gate_pitch arch.Ir_ia.Arch.design
  in
  let bunches = Ir_wld.Coarsen.bunch ~bunch_size ~pitch wld in
  build ?activity ?power_budget ~arch ~target_model ~noise_limit bunches

(* ---- rescale-reuse paths ---------------------------------------------- *)

(* The repeater budget A_R = fraction * die_area enters no precomputed
   table (the DP reads it through [budget] at query time), and the die
   area itself depends on the floorplan reserve, not on the usable
   fraction, so rescaling R keeps every table valid verbatim. *)
let with_repeater_fraction t fraction =
  let design =
    Ir_tech.Design.with_repeater_fraction t.arch.Ir_ia.Arch.design fraction
  in
  { t with arch = Ir_ia.Arch.with_design t.arch design }

(* A materials change (k, miller, cap model) moves the electricals —
   line RC, optimal repeater sizing, noise verdicts — so eta and the
   repeater prefixes are rebuilt against the re-derived architecture.
   The targets (clock + l_max only), the bunching, the wire prefix and
   the routing-area prefixes ([wire_area] is length * pitch, geometry
   only) are reused verbatim: the rebuilt fields are bit-equal to a
   from-scratch construction at the new materials because they are the
   same float expressions over the same inputs. *)
let with_materials t materials =
  let arch = Ir_ia.Arch.with_materials t.arch materials in
  let eta, rep_area_prefix, rep_count_prefix, bad_prefix =
    repeater_tables ~arch ~noise_limit:t.noise_limit ~targets:t.targets
      t.bunches
  in
  (* kappa reads only the device and the design, which materials leave
     alone, so it and the area cap carry over.  The pads are re-derived
     from the rebound pairs. *)
  {
    t with
    arch;
    eta;
    rep_area_prefix;
    rep_count_prefix;
    bad_prefix;
    via_pad = via_pads arch;
  }

(* A clock change moves only the per-bunch targets and everything derived
   from them (eta and the repeater prefixes); the bunching, wire prefix,
   routing-area prefixes and via pads are geometry-only and are reused. *)
let with_clock t clock =
  let design = Ir_tech.Design.with_clock t.arch.Ir_ia.Arch.design clock in
  let arch = Ir_ia.Arch.with_design t.arch design in
  let targets = targets_for ~arch ~target_model:t.target_model t.bunches in
  let eta, rep_area_prefix, rep_count_prefix, bad_prefix =
    repeater_tables ~arch ~noise_limit:t.noise_limit ~targets t.bunches
  in
  (* The dynamic power term is proportional to the clock: kappa, and
     with it the area cap, moves too. *)
  with_power ~activity:t.activity ~power_budget:t.power_budget
    {
      t with
      arch;
      targets;
      eta;
      rep_area_prefix;
      rep_count_prefix;
      bad_prefix;
    }

(* Power enters no table: a new budget or activity moves only kappa and
   the area cap. *)
let with_power_budget t b =
  if not (b > 0.0) then invalid_arg "Problem.with_power_budget: budget <= 0";
  with_power t ~activity:t.activity ~power_budget:b

let with_activity t activity =
  if not (activity > 0.0 && activity <= 1.0) then
    invalid_arg "Problem.with_activity: activity must be in (0, 1]";
  with_power t ~activity ~power_budget:t.power_budget
