type tier = {
  cls : Ir_tech.Metal_class.t;
  geometry : Ir_tech.Geometry.t;
  l_min : float;
  l_max : float;
  demand : float;
}
[@@deriving show]

(* Split the (meter-scaled) WLD into [tiers] contiguous ranges of roughly
   equal total wire length, shortest range first. *)
let equal_length_ranges ~tiers dist =
  let bins = Ir_wld.Dist.bins dist in
  let total = Ir_wld.Dist.total_wire_length dist in
  let per_tier = total /. float_of_int tiers in
  let ranges = ref [] in
  let acc = ref 0.0 and lo = ref 0 in
  let tier_end = ref per_tier in
  Array.iteri
    (fun i (b : Ir_wld.Dist.bin) ->
      acc := !acc +. (b.length *. float_of_int b.count);
      let last = i = Array.length bins - 1 in
      if (!acc >= !tier_end && List.length !ranges < tiers - 1) || last then begin
        let demand =
          Array.fold_left
            (fun s j -> s +. (j : Ir_wld.Dist.bin).length *. float_of_int j.count)
            0.0
            (Array.sub bins !lo (i - !lo + 1))
        in
        ranges :=
          (bins.(!lo).Ir_wld.Dist.length, b.Ir_wld.Dist.length, demand)
          :: !ranges;
        lo := i + 1;
        tier_end := !tier_end +. per_tier
      end)
    bins;
  List.rev !ranges

let class_of_index ~tiers i =
  (* bottom tier(s) local, top tier global, middle semi-global *)
  if i = 0 then Ir_tech.Metal_class.Local
  else if i = tiers - 1 then Ir_tech.Metal_class.Global
  else Ir_tech.Metal_class.Semi_global

let design_tiers ?(tiers = 4) ?(fill = 0.6) ?(aspect_ratio = 2.0) design =
  if tiers < 1 then invalid_arg "Ntier.design_tiers: tiers must be >= 1";
  if not (fill > 0.0 && fill <= 1.0) then
    invalid_arg "Ntier.design_tiers: fill must lie in (0, 1]";
  if not (aspect_ratio > 0.0) then
    invalid_arg "Ntier.design_tiers: aspect_ratio must be > 0";
  let node = design.Ir_tech.Design.node in
  let pitch_floor =
    Ir_tech.Geometry.pitch (Ir_tech.Stack.of_node node).local
  in
  let wld =
    Ir_wld.Davis.generate_meters
      (Ir_wld.Davis.params ~gates:design.Ir_tech.Design.gates
         ~rent_p:design.Ir_tech.Design.rent_p
         ~fan_out:design.Ir_tech.Design.fan_out ())
      ~pitch:(Ir_tech.Design.effective_gate_pitch design)
  in
  let capacity = 2.0 *. Ir_tech.Design.die_area design in
  List.mapi
    (fun i (l_min, l_max, demand) ->
      (* Size the pitch so the tier's demand fills [fill] of a pair. *)
      let pitch = Float.max pitch_floor (fill *. capacity /. demand) in
      let width = pitch /. 2.0 in
      let geometry =
        Ir_tech.Geometry.v ~width ~spacing:width
          ~thickness:(aspect_ratio *. width)
          ~via_width:width ()
      in
      { cls = class_of_index ~tiers i; geometry; l_min; l_max; demand })
    (equal_length_ranges ~tiers wld)

let architecture ?tiers ?fill ?aspect_ratio ?materials design =
  let ts = design_tiers ?tiers ?fill ?aspect_ratio design in
  (* Arch wants topmost first; tiers are bottom-up. *)
  let pairs = List.rev_map (fun t -> (t.cls, t.geometry)) ts in
  Ir_ia.Arch.custom ?materials ~design ~pairs ()

let compare_with_baseline ?tiers ?(bunch_size = 10000) design =
  let wld =
    Ir_wld.Davis.generate
      (Ir_wld.Davis.params ~gates:design.Ir_tech.Design.gates
         ~rent_p:design.Ir_tech.Design.rent_p
         ~fan_out:design.Ir_tech.Design.fan_out ())
  in
  let rank arch =
    Ir_core.Rank.compute
      (Ir_assign.Problem.make ~bunch_size ~arch ~wld ())
  in
  let ntier = rank (architecture ?tiers design) in
  let baseline = rank (Ir_ia.Arch.make ~design ()) in
  (`Ntier ntier, `Baseline baseline)
