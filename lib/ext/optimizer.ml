type knob = {
  semi_global_pairs : int list;
  global_pairs : int list;
  pitch_scale : float list;
  thickness_scale : float list;
}

let default_knobs =
  {
    semi_global_pairs = [ 1; 2 ];
    global_pairs = [ 1 ];
    pitch_scale = [ 0.8; 1.0; 1.25 ];
    thickness_scale = [ 0.8; 1.0; 1.25 ];
  }

type candidate = {
  structure : Ir_ia.Arch.structure;
  pitch_scale : float;
  thickness_scale : float;
  outcome : Ir_core.Outcome.t;
}
[@@deriving show]

let scale_geometry (g : Ir_tech.Geometry.t) ~pitch_scale ~thickness_scale =
  Ir_tech.Geometry.v
    ~width:(g.width *. pitch_scale)
    ~spacing:(g.spacing *. pitch_scale)
    ~thickness:(g.thickness *. thickness_scale)
    ~ild_thickness:(g.ild_thickness *. thickness_scale)
    ~via_width:g.via_width ()

let scaled_stack (stack : Ir_tech.Stack.t) ~pitch_scale ~thickness_scale =
  {
    stack with
    semi_global =
      scale_geometry stack.semi_global ~pitch_scale ~thickness_scale;
    global = scale_geometry stack.global ~pitch_scale ~thickness_scale;
  }

(* Better-candidate ordering: rank first, then fewer pairs, then the less
   exotic geometry (scales closest to 1). *)
let better a b =
  let pairs c =
    c.structure.Ir_ia.Arch.local_pairs
    + c.structure.Ir_ia.Arch.semi_global_pairs
    + c.structure.Ir_ia.Arch.global_pairs
  in
  let exoticism c =
    Float.abs (log c.pitch_scale) +. Float.abs (log c.thickness_scale)
  in
  if a.outcome.Ir_core.Outcome.rank_wires
     <> b.outcome.Ir_core.Outcome.rank_wires then
    a.outcome.Ir_core.Outcome.rank_wires
    > b.outcome.Ir_core.Outcome.rank_wires
  else if pairs a <> pairs b then pairs a < pairs b
  else exoticism a < exoticism b

let optimize ?jobs ?(knobs = default_knobs) ?(bunch_size = 10000)
    ?(target_model = Ir_delay.Target.Linear) design =
  let node = design.Ir_tech.Design.node in
  let base_stack = Ir_tech.Stack.of_node node in
  let wld =
    Ir_wld.Davis.generate
      (Ir_wld.Davis.params ~gates:design.Ir_tech.Design.gates
         ~rent_p:design.Ir_tech.Design.rent_p
         ~fan_out:design.Ir_tech.Design.fan_out ())
  in
  (* Bunching depends only on the design's gate pitch — the candidates
     vary structure and geometry, never the design — so one bunching
     serves the whole grid instead of re-coarsening the WLD per
     candidate. *)
  let bunches =
    let pitch = Ir_tech.Design.effective_gate_pitch design in
    Ir_wld.Coarsen.bunch ~bunch_size ~pitch wld
  in
  (* Enumerate the grid first, drop candidates the stack cannot provide,
     build every survivor's problem on the Ir_exec pool (independent —
     each builds its own arch; the WLD is shared read-only), then rank
     the whole batch as one [Rank_grid.eval_batch] wavefront.  The pool
     parallelizes {e inside} each DP level instead of across candidates,
     and the batch's sequential phase B threads each candidate's
     boundary into the next search as its warm start — the same
     column-locality the old anchor hint exploited, but deterministic
     for the whole chain rather than one fixed anchor.  The result list
     keeps grid order, so the [better] fold below picks the same winner
     as a sequential scan. *)
  let combos =
    List.concat_map
      (fun sg ->
        List.concat_map
          (fun gl ->
            List.concat_map
              (fun ps ->
                List.map (fun ts -> (sg, gl, ps, ts)) knobs.thickness_scale)
              knobs.pitch_scale)
          knobs.global_pairs)
      knobs.semi_global_pairs
  in
  let metas =
    List.filter_map
      (fun (sg, gl, ps, ts) ->
        let structure =
          { Ir_ia.Arch.local_pairs = 1; semi_global_pairs = sg;
            global_pairs = gl }
        in
        let stack = scaled_stack base_stack ~pitch_scale:ps
            ~thickness_scale:ts in
        match Ir_ia.Arch.make ~structure ~stack ~design () with
        | exception Invalid_argument _ -> None
        | arch -> Some (structure, ps, ts, arch))
      combos
  in
  let candidates =
    let problems =
      Ir_exec.parallel_list_map ?jobs
        (fun (_, _, _, arch) ->
          Ir_assign.Problem.of_bunches ~target_model ~arch ~bunches ())
        metas
    in
    Logs.debug (fun f ->
        f "optimizer: batching %d candidates" (List.length problems));
    let outcomes =
      Ir_core.Rank_grid.eval_batch ?jobs (Array.of_list problems)
    in
    List.mapi
      (fun i (structure, pitch_scale, thickness_scale, _) ->
        { structure; pitch_scale; thickness_scale; outcome = outcomes.(i) })
      metas
  in
  match candidates with
  | [] -> invalid_arg "Optimizer.optimize: no buildable candidate"
  | first :: rest ->
      let best =
        List.fold_left (fun acc c -> if better c acc then c else acc) first
          rest
      in
      (best, candidates)
