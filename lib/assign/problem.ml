type t = {
  arch : Ir_ia.Arch.t;
  target_model : Ir_delay.Target.t;
  noise_limit : float option;
  lengths : float array;  (* per bunch, non-increasing, meters *)
  counts : int array;  (* per bunch, wires *)
  targets : float array;  (* per-bunch target delay, seconds *)
  wire_prefix : int array;  (* wire_prefix.(i) = wires in bunches [0..i) *)
  (* Flat per-pair planes of [m * (n + 1)] entries: pair j's prefix over
     bunches [0..i) is at [j * (n + 1) + i].
     area_prefix      : routing area of the bunches on pair j
     rep_area_prefix, rep_count_prefix :
       repeater area / count to meet the targets of the bunches
       (infeasible bunches contribute 0 and are masked by bad_prefix)
     bad_prefix       : number of infeasible bunches

     Repeater counts are integers by construction (count * eta summed over
     bunches), so the count prefix is an int plane: differencing a float
     prefix and truncating back with int_of_float can lose a unit to
     cancellation (6.9999... -> 6), under-counting repeaters and hence the
     via blockage they charge below.  It also gives a feasible bunch's
     repeater count back exactly, so no per-bunch count is stored. *)
  area_prefix : float array;
  rep_area_prefix : float array;
  rep_count_prefix : int array;
  bad_prefix : int array;
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
let n_bunches t = Array.length t.lengths
let n_pairs t = Ir_ia.Arch.pair_count t.arch
let total_wires t = t.wire_prefix.(n_bunches t)
(* The accessors marked [@inline] run per (source, destination) in the
   phase-A DP loop: without flambda, ocamlopt returns a float from a
   cross-module call boxed unless the call is inlined. *)
let[@inline] bunch_length t b = t.lengths.(b)
let[@inline] bunch_count t b = t.counts.(b)
let[@inline] wires_before t i = t.wire_prefix.(i)
let target t b = t.targets.(b)
let capacity t = Ir_ia.Arch.pair_capacity t.arch
let budget t =
  let a = Ir_ia.Arch.repeater_budget t.arch in
  if t.area_cap < a then t.area_cap else a

(* Start of pair [pair]'s row in the planes. *)
let[@inline] row t pair = pair * (Array.length t.lengths + 1)

(* [Ir_ia.Arch.blocked_area]'s expression, with the pad read from
   [via_pad] instead of derived per call. *)
let[@inline] blocked t ~pair ~wires_above ~reps_above =
  if wires_above < 0 || reps_above < 0 then
    invalid_arg "Problem.blocked: negative counts";
  (float_of_int (t.arch.Ir_ia.Arch.vias_per_wire * wires_above)
  +. float_of_int reps_above)
  *. t.via_pad.(pair)

let[@inline] interval_area t ~pair ~lo ~hi =
  let r = row t pair in
  t.area_prefix.(r + hi) -. t.area_prefix.(r + lo)

let[@inline] meeting_feasible t ~pair ~lo ~hi =
  let r = row t pair in
  t.bad_prefix.(r + hi) - t.bad_prefix.(r + lo) = 0

let[@inline] meeting_area t ~pair ~lo ~hi =
  let r = row t pair in
  t.rep_area_prefix.(r + hi) -. t.rep_area_prefix.(r + lo)

let[@inline] meeting_count t ~pair ~lo ~hi =
  let r = row t pair in
  t.rep_count_prefix.(r + hi) - t.rep_count_prefix.(r + lo)

(* A feasible bunch's count difference is [count * eta], exactly. *)
let eta_min t ~pair ~bunch =
  if meeting_feasible t ~pair ~lo:bunch ~hi:(bunch + 1) then
    Some (meeting_count t ~pair ~lo:bunch ~hi:(bunch + 1) / t.counts.(bunch))
  else None

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

let targets_for ~arch ~target_model lengths =
  Ir_delay.Target.delays target_model
    ~clock:arch.Ir_ia.Arch.design.Ir_tech.Design.clock ~l_max:lengths.(0)
    lengths

(* Routing-area prefixes: per pair, geometry-only — independent of the
   targets (clock), the repeater budget and the noise limit. *)
let area_tables ~arch ~lengths ~counts =
  let n = Array.length lengths in
  let m = Ir_ia.Arch.pair_count arch in
  let area_prefix = Array.make (m * (n + 1)) 0.0 in
  for j = 0 to m - 1 do
    let p = Ir_ia.Arch.pair arch j in
    let r = j * (n + 1) in
    for b = 0 to n - 1 do
      area_prefix.(r + b + 1) <-
        area_prefix.(r + b)
        +. (float_of_int counts.(b) *. Ir_ia.Layer_pair.wire_area p lengths.(b))
    done;
    (* Finite lengths can still sum past [max_float]; an infinite entry
       would make interval areas inf - inf = NaN. *)
    if area_prefix.(r + n) = infinity then
      invalid_arg "Problem: total routing area overflows"
  done;
  area_prefix

let via_pads arch =
  Array.init (Ir_ia.Arch.pair_count arch) (fun j ->
      Ir_ia.Via_model.blocked_area_per_via arch.Ir_ia.Arch.via_model
        (Ir_ia.Arch.pair arch j).Ir_ia.Layer_pair.geom)

(* Repeater tables: per pair, the minimal per-wire count meeting each
   bunch's target, as area/count/infeasibility prefixes.  Depends on the
   targets (hence the clock) and the noise limit, but not on the repeater
   budget.  The pair's Eq. (3) kernel is built once, and each bunch runs
   its verdict. *)
type repeater_tables = {
  rep_area : float array;
  rep_count : int array;
  bad : int array;
}

let repeater_tables ~arch ~noise_limit ~targets ~lengths ~counts =
  let n = Array.length lengths in
  let m = Ir_ia.Arch.pair_count arch in
  let device = arch.Ir_ia.Arch.device in
  let materials = arch.Ir_ia.Arch.materials in
  let rep_area = Array.make (m * (n + 1)) 0.0 in
  let rep_count = Array.make (m * (n + 1)) 0 in
  let bad = Array.make (m * (n + 1)) 0 in
  for j = 0 to m - 1 do
    let p = Ir_ia.Arch.pair arch j in
    let r = j * (n + 1) in
    (* A pair failing its crosstalk budget cannot host meeting wires: the
       charge-sharing ratio is length-independent, so noise is a per-pair
       verdict (see Ir_rc.Noise). *)
    let noisy =
      match noise_limit with
      | None -> false
      | Some limit ->
          not
            (Ir_rc.Noise.passes ~k:materials.Ir_ia.Materials.k
               ~miller:materials.Ir_ia.Materials.miller ~limit
               p.Ir_ia.Layer_pair.geom)
    in
    if noisy then
      for b = 0 to n - 1 do
        bad.(r + b + 1) <- b + 1
      done
    else begin
      let rep_area_j = p.Ir_ia.Layer_pair.repeater_area in
      let k =
        Ir_delay.Model.kernel device p.Ir_ia.Layer_pair.line
          ~s:p.Ir_ia.Layer_pair.s_opt
      in
      (* The bunches of one split bin share their length and target, so
         bunch [b] takes bunch [b - 1]'s verdict when both match: the
         verdict is a function of those two floats.  0 = infeasible. *)
      let e = ref 0 in
      for b = 0 to n - 1 do
        let l = lengths.(b) in
        if not (b > 0 && l = lengths.(b - 1) && targets.(b) = targets.(b - 1))
        then e := Ir_delay.Model.verdict k ~target:targets.(b) l;
        let i = r + b in
        if !e > 0 then begin
          let count = counts.(b) in
          rep_area.(i + 1) <-
            rep_area.(i)
            +. (float_of_int count *. float_of_int !e *. rep_area_j);
          rep_count.(i + 1) <- rep_count.(i) + (count * !e);
          bad.(i + 1) <- bad.(i)
        end
        else begin
          rep_area.(i + 1) <- rep_area.(i);
          rep_count.(i + 1) <- rep_count.(i);
          bad.(i + 1) <- bad.(i) + 1
        end
      done
    end
  done;
  { rep_area; rep_count; bad }

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
    ~target_model ~noise_limit ~lengths ~counts () =
  let n = Array.length lengths in
  if n = 0 then invalid_arg "Problem: empty instance";
  if Array.length counts <> n then
    invalid_arg "Problem: bunch columns differ in length";
  for b = 0 to n - 1 do
    if counts.(b) <= 0 then invalid_arg "Problem: non-positive bunch count";
    let l = lengths.(b) in
    if not (l > 0.0) then invalid_arg "Problem: non-positive bunch length";
    if l = infinity then invalid_arg "Problem: infinite bunch length"
  done;
  for i = 1 to n - 1 do
    if lengths.(i) > lengths.(i - 1) then
      invalid_arg "Problem: bunches must be sorted by non-increasing length"
  done;
  if not (activity > 0.0 && activity <= 1.0) then
    invalid_arg "Problem: activity must be in (0, 1]";
  if not (power_budget > 0.0) then
    invalid_arg "Problem: power budget must be positive";
  let targets = targets_for ~arch ~target_model lengths in
  let wire_prefix = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    wire_prefix.(i + 1) <- wire_prefix.(i) + counts.(i)
  done;
  let area_prefix = area_tables ~arch ~lengths ~counts in
  let r = repeater_tables ~arch ~noise_limit ~targets ~lengths ~counts in
  with_power ~activity ~power_budget
  {
    arch;
    target_model;
    noise_limit;
    lengths;
    counts;
    targets;
    wire_prefix;
    area_prefix;
    rep_area_prefix = r.rep_area;
    rep_count_prefix = r.rep_count;
    bad_prefix = r.bad;
    via_pad = via_pads arch;
    activity;
    power_budget;
    kappa = 0.0;
    area_cap = infinity;
  }

let of_bunches ?(target_model = Ir_delay.Target.Linear) ?noise_limit
    ?activity ?power_budget ~arch ~(bunches : Ir_wld.Coarsen.bunches) () =
  build ?activity ?power_budget ~arch ~target_model ~noise_limit
    ~lengths:(Array.copy bunches.lengths) ~counts:(Array.copy bunches.counts)
    ()

let make ?(target_model = Ir_delay.Target.Linear) ?noise_limit ?activity
    ?power_budget ?(bunch_size = 10000) ~arch ~wld () =
  if Ir_wld.Dist.is_empty wld then invalid_arg "Problem.make: empty WLD";
  let pitch =
    Ir_tech.Design.effective_gate_pitch arch.Ir_ia.Arch.design
  in
  let { Ir_wld.Coarsen.lengths; counts } =
    Ir_wld.Coarsen.bunch ~bunch_size ~pitch wld
  in
  build ?activity ?power_budget ~arch ~target_model ~noise_limit ~lengths
    ~counts ()

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
   line RC, optimal repeater sizing, noise verdicts — so the repeater
   prefixes are rebuilt against the re-derived architecture.
   The targets (clock + l_max only), the bunching, the wire prefix and
   the routing-area prefixes ([wire_area] is length * pitch, geometry
   only) are reused verbatim: the rebuilt fields are bit-equal to a
   from-scratch construction at the new materials because they are the
   same float expressions over the same inputs. *)
let with_materials t materials =
  let arch = Ir_ia.Arch.with_materials t.arch materials in
  let r =
    repeater_tables ~arch ~noise_limit:t.noise_limit ~targets:t.targets
      ~lengths:t.lengths ~counts:t.counts
  in
  (* kappa reads only the device and the design, which materials leave
     alone, so it and the area cap carry over.  The pads are re-derived
     from the rebound pairs. *)
  {
    t with
    arch;
    rep_area_prefix = r.rep_area;
    rep_count_prefix = r.rep_count;
    bad_prefix = r.bad;
    via_pad = via_pads arch;
  }

(* A clock change moves only the per-bunch targets and everything derived
   from them (the repeater prefixes); the bunching, wire prefix,
   routing-area prefixes and via pads are geometry-only and are reused. *)
let with_clock t clock =
  let design = Ir_tech.Design.with_clock t.arch.Ir_ia.Arch.design clock in
  let arch = Ir_ia.Arch.with_design t.arch design in
  let targets = targets_for ~arch ~target_model:t.target_model t.lengths in
  let r =
    repeater_tables ~arch ~noise_limit:t.noise_limit ~targets
      ~lengths:t.lengths ~counts:t.counts
  in
  (* The dynamic power term is proportional to the clock: kappa, and
     with it the area cap, moves too. *)
  with_power ~activity:t.activity ~power_budget:t.power_budget
    {
      t with
      arch;
      targets;
      rep_area_prefix = r.rep_area;
      rep_count_prefix = r.rep_count;
      bad_prefix = r.bad;
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
