(* Traced replica of the engine workload.  It does the work of the
   untraced pass: the same Problem constructors; Rank_grid's wavefront at
   jobs = 1, with builders created in cell order, stepped level by level,
   then finished and widened in order; the same phase-B calls with the
   same hint threading.  It goes through Rank_dp's public
   stepping API so that each layer call is timed from here and nothing in
   lib/ needs a span.  trace.ml checks that the outcomes and work counters
   equal the untraced pass's, so a replica that drifts from Rank_grid
   fails the run. *)

open Common
module P = Ir_assign.Problem
module D = Ir_core.Rank_dp
module O = Ir_core.Outcome

(* The cost of one wavefront cell. *)
type cell_cost = {
  mutable build_s : float;  (** builder, level steps and finish *)
  mutable widen_s : float;  (** the widen ladder after the first rung *)
  mutable search_s : float;  (** phase B *)
  mutable inserts : int;  (** Front inserts over every rung *)
  mutable truncations : int;  (** over every rung *)
  mutable widen_inserts : int;  (** Front inserts of the widen rungs *)
  mutable nofit : bool;  (** the cell's answer is rank 0 *)
}

type t = {
  self : (string, float) Hashtbl.t;  (** layer -> self seconds *)
  mutable levels : int;
  mutable level_max_s : float;  (** the slowest wavefront level *)
  mutable cells : cell_cost array;
}

let create () =
  { self = Hashtbl.create 16; levels = 0; level_max_s = 0.0; cells = [||] }

let self tr layer = Option.value ~default:0.0 (Hashtbl.find_opt tr.self layer)
let add tr layer dt = Hashtbl.replace tr.self layer (self tr layer +. dt)
let covered tr = Hashtbl.fold (fun _ s acc -> acc +. s) tr.self 0.0

let timed tr layer f =
  let r, dt = time f in
  add tr layer dt;
  r

let counter name = Ir_obs.value (Ir_obs.counter name)

(* Rank_grid.wavefront at jobs = 1, one timed call at a time. *)
let wavefront tr problems =
  let n = Array.length problems in
  let cost =
    Array.init n (fun _ ->
        {
          build_s = 0.0;
          widen_s = 0.0;
          search_s = 0.0;
          inserts = 0;
          truncations = 0;
          widen_inserts = 0;
          nofit = false;
        })
  in
  let charge i dt = cost.(i).build_s <- cost.(i).build_s +. dt in
  let builders =
    Array.mapi
      (fun i p ->
        let b, dt = time (fun () -> D.builder p) in
        charge i dt;
        b)
      problems
  in
  let active = ref (List.init n Fun.id) in
  while !active <> [] do
    let level = ref 0.0 in
    let still =
      List.filter
        (fun i ->
          let more, dt = time (fun () -> D.builder_step builders.(i)) in
          charge i dt;
          level := !level +. dt;
          more)
        !active
    in
    (* Rank_grid's per-level barrier; a no-op for unpruned builds. *)
    List.iter (fun i -> D.builder_advance_incumbent builders.(i)) !active;
    tr.levels <- tr.levels + 1;
    tr.level_max_s <- Float.max tr.level_max_s !level;
    active := still
  done;
  let tables =
    Array.mapi
      (fun i b ->
        let c = cost.(i) in
        let inserts0 = counter "rank_dp/pareto_inserts" in
        let truncations0 = counter "rank_dp/pareto_truncations" in
        let first, dt = time (fun () -> D.builder_finish b) in
        charge i dt;
        let inserts1 = counter "rank_dp/pareto_inserts" in
        let widened, dw = time (fun () -> D.widen_tables first) in
        c.widen_s <- dw;
        c.inserts <- counter "rank_dp/pareto_inserts" - inserts0;
        c.truncations <- counter "rank_dp/pareto_truncations" - truncations0;
        c.widen_inserts <- counter "rank_dp/pareto_inserts" - inserts1;
        widened)
      builders
  in
  Array.iter
    (fun c ->
      add tr "rank_dp.build" c.build_s;
      add tr "rank_dp.widen" c.widen_s)
    cost;
  tr.cells <- cost;
  tables

(* ---- cross_widen ------------------------------------------------------ *)

(* Rank_grid.eval_batch ~jobs:1 ~probe_fan:1 over the cross cells, with
   Rank.problem_of_design split into its WLD and Problem layers. *)
let cross tr =
  let problems =
    Array.map
      (fun (c : Engine.cell) ->
        let d = Engine.cross_design c in
        let arch =
          timed tr "problem.make" (fun () ->
              Ir_ia.Arch.make ~structure:c.Engine.structure ~design:d ())
        in
        let wld =
          timed tr "wld.generate" (fun () ->
              Ir_wld.Davis.generate
                (Ir_wld.Davis.params ~gates:d.Ir_tech.Design.gates
                   ~rent_p:d.Ir_tech.Design.rent_p
                   ~fan_out:d.Ir_tech.Design.fan_out ()))
        in
        timed tr "problem.make" (fun () -> P.make ~arch ~wld ()))
      Engine.cross_cells
  in
  let tables = wavefront tr problems in
  let hint = ref None in
  Array.mapi
    (fun i tables ->
      let (o, _), dt =
        time (fun () -> D.search_with_tables ?hint:!hint ~probe_fan:1 tables)
      in
      add tr "rank_dp.search" dt;
      tr.cells.(i).search_s <- dt;
      tr.cells.(i).nofit <- not o.O.assignable;
      if o.O.assignable then hint := Some o.O.boundary_bunch;
      (Engine.cross_cells.(i).Engine.label, o))
    tables
