type structure = {
  local_pairs : int;
  semi_global_pairs : int;
  global_pairs : int;
}
[@@deriving show, eq]

let baseline_structure =
  { local_pairs = 1; semi_global_pairs = 2; global_pairs = 1 }

type t = {
  design : Ir_tech.Design.t;
  stack : Ir_tech.Stack.t;
  device : Ir_tech.Device.t;
  materials : Materials.t;
  structure : structure;
  pairs : Layer_pair.t array;
  die_area : float;
  utilization : float;
  vias_per_wire : int;
  via_model : Via_model.t;
}
[@@deriving show]

let build_pairs ~stack ~device ~materials ~node structure =
  let mk cls n =
    List.init n (fun _ ->
        Layer_pair.make ~device ~materials ~node ~cls
          (Ir_tech.Stack.geometry stack cls))
  in
  (* Topmost first: global, then semi-global, then local. *)
  Array.of_list
    (mk Ir_tech.Metal_class.Global structure.global_pairs
    @ mk Ir_tech.Metal_class.Semi_global structure.semi_global_pairs
    @ mk Ir_tech.Metal_class.Local structure.local_pairs)

let make ?(structure = baseline_structure) ?(materials = Materials.default)
    ?device ?stack ?(utilization = 1.0) ?(vias_per_wire = 3)
    ?(via_model = Via_model.Pad) ~design () =
  let node = design.Ir_tech.Design.node in
  let stack =
    match stack with Some s -> s | None -> Ir_tech.Stack.of_node node
  in
  let device =
    match device with Some d -> d | None -> Ir_tech.Device.of_node node
  in
  let check_pairs cls requested =
    let available = Ir_tech.Stack.max_pairs stack cls in
    if requested < 0 then
      invalid_arg "Arch.make: negative pair count";
    if requested > available then
      invalid_arg
        (Printf.sprintf "Arch.make: %d %s pairs requested, stack provides %d"
           requested
           (Ir_tech.Metal_class.to_string cls)
           available)
  in
  check_pairs Ir_tech.Metal_class.Local structure.local_pairs;
  check_pairs Ir_tech.Metal_class.Semi_global structure.semi_global_pairs;
  check_pairs Ir_tech.Metal_class.Global structure.global_pairs;
  let total =
    structure.local_pairs + structure.semi_global_pairs
    + structure.global_pairs
  in
  if total = 0 then invalid_arg "Arch.make: architecture has no layer-pairs";
  if not (utilization > 0.0 && utilization <= 1.0) then
    invalid_arg "Arch.make: utilization must lie in (0, 1]";
  if vias_per_wire < 0 then
    invalid_arg "Arch.make: vias_per_wire must be >= 0";
  {
    design;
    stack;
    device;
    materials;
    structure;
    pairs = build_pairs ~stack ~device ~materials ~node structure;
    die_area = Ir_tech.Design.die_area design;
    utilization;
    vias_per_wire;
    via_model;
  }

let custom ?(materials = Materials.default) ?device
    ?(utilization = 1.0) ?(vias_per_wire = 3) ?(via_model = Via_model.Pad)
    ~design ~pairs () =
  if pairs = [] then invalid_arg "Arch.custom: architecture has no layer-pairs";
  if not (utilization > 0.0 && utilization <= 1.0) then
    invalid_arg "Arch.custom: utilization must lie in (0, 1]";
  if vias_per_wire < 0 then
    invalid_arg "Arch.custom: vias_per_wire must be >= 0";
  let node = design.Ir_tech.Design.node in
  let device =
    match device with Some d -> d | None -> Ir_tech.Device.of_node node
  in
  let count cls =
    List.length (List.filter (fun (c, _) -> c = cls) pairs)
  in
  {
    design;
    stack = Ir_tech.Stack.of_node node;
    device;
    materials;
    structure =
      {
        local_pairs = count Ir_tech.Metal_class.Local;
        semi_global_pairs = count Ir_tech.Metal_class.Semi_global;
        global_pairs = count Ir_tech.Metal_class.Global;
      };
    pairs =
      Array.of_list
        (List.map
           (fun (cls, geom) ->
             Layer_pair.make ~device ~materials ~node ~cls geom)
           pairs);
    die_area = Ir_tech.Design.die_area design;
    utilization;
    vias_per_wire;
    via_model;
  }

let pair_count t = Array.length t.pairs

let pair t j =
  if j < 0 || j >= pair_count t then invalid_arg "Arch.pair: index out of range";
  t.pairs.(j)

let pair_capacity t = 2.0 *. t.die_area *. t.utilization
let repeater_budget t = Ir_tech.Design.repeater_area t.design

let blocked_area t ~pair_index ~wires_above ~repeaters_above =
  if wires_above < 0 || repeaters_above < 0 then
    invalid_arg "Arch.blocked_area: negative counts";
  let p = pair t pair_index in
  let pad = Via_model.blocked_area_per_via t.via_model p.Layer_pair.geom in
  let wire_pads = float_of_int (t.vias_per_wire * wires_above) in
  let repeater_pads = float_of_int repeaters_above in
  (wire_pads +. repeater_pads) *. pad

(* Re-derive every pair from its own class and geometry, so an arch from
   [custom] keeps its explicit pairs (which its node's stack may not
   provide); for an arch from [make] the pairs' geometries are the
   stack's, and this is the pair list [make] would build. *)
let rebind t ~materials ~design =
  let node = design.Ir_tech.Design.node in
  {
    t with
    design;
    materials;
    pairs =
      Array.map
        (fun (p : Layer_pair.t) ->
          Layer_pair.make ~device:t.device ~materials ~node ~cls:p.cls p.geom)
        t.pairs;
    die_area = Ir_tech.Design.die_area design;
  }

let with_materials t materials = rebind t ~materials ~design:t.design
let with_design t design = rebind t ~materials:t.materials ~design

let pp_summary ppf t =
  let open Format in
  fprintf ppf "@[<v>architecture on %s: %d pairs, die %.2f mm^2, budget %.3f mm^2@,"
    (Ir_tech.Node.name t.design.Ir_tech.Design.node)
    (pair_count t)
    (Ir_phys.Units.to_mm2 t.die_area)
    (Ir_phys.Units.to_mm2 (repeater_budget t));
  Array.iteri
    (fun j (p : Layer_pair.t) ->
      fprintf ppf
        "  pair %d (%s): pitch %.3f um, r=%.3g ohm/m, c=%.3g F/m, s_opt=%.1f@,"
        j
        (Ir_tech.Metal_class.to_string p.cls)
        (Ir_phys.Units.to_um (Layer_pair.pitch p))
        p.line.Ir_delay.Model.r_per_m p.line.Ir_delay.Model.c_per_m p.s_opt)
    t.pairs;
  fprintf ppf "@]"
