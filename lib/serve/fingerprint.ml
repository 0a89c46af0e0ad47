type algo = Dp | Greedy

type t = {
  node : Ir_tech.Node.t;
  gates : int;
  rent_p : float;
  fan_out : float;
  clock : float;
  repeater_fraction : float;
  k : float;
  miller : float;
  bunch_size : int;
  structure : Ir_ia.Arch.structure;
  algo : algo;
  power_budget : float;
  activity : float;
  wld : Ir_wld.Dist.t option;
}

let algo_name = function Dp -> "dp" | Greedy -> "greedy"

let design q =
  Ir_tech.Design.v ~node:q.node ~gates:q.gates ~rent_p:q.rent_p
    ~fan_out:q.fan_out ~clock:q.clock ~repeater_fraction:q.repeater_fraction
    ()

(* A ceiling on the bunch count of an accepted query: seven times the
   bound of the 8-layer 90nm/10M cell at the default bunch size
   (6,325 + 3,000 = 9,325).  It bounds the memory and the work of one
   request, including the Davis loop over [2 sqrt gates] lengths. *)
let max_bunches = 65_536

(* An upper bound on the query's bunch count.  A Davis WLD has at most
   [ceil (2 sqrt N)] bins holding [fan_out N] wires, up to rounding, and
   each bin adds at most one partial bunch to its full ones; an inline
   WLD is counted exactly.  Floats, so that no product overflows. *)
let bunch_bound q =
  match q.wld with
  | Some w -> float_of_int (Ir_wld.Coarsen.bunch_count ~bunch_size:q.bunch_size w)
  | None ->
      let g = float_of_int q.gates in
      Float.ceil (2.0 *. sqrt g)
      +. Float.ceil (q.fan_out *. g /. float_of_int q.bunch_size)

let check_size q =
  let b = bunch_bound q in
  if not (Float.is_finite b && b <= float_of_int max_bunches) then
    Error
      (Printf.sprintf
         "instance too large: up to %.17g bunches, the limit is %d (raise \
          bunch_size or lower gates)"
         b max_bunches)
  else Ok q

let v ?(rent_p = 0.6) ?(fan_out = 3.0) ?(clock = 0.5e9)
    ?(repeater_fraction = 0.4) ?(k = 3.9) ?(miller = 2.0)
    ?(bunch_size = 10_000) ?(structure = Ir_ia.Arch.baseline_structure)
    ?(algo = Dp) ?(power_budget = infinity)
    ?(activity = Ir_assign.Problem.default_activity) ?wld ~node ~gates () =
  match Ir_tech.Node.of_string node with
  | None ->
      Error
        (Printf.sprintf
           "unknown node %S (use 180nm, 130nm, 90nm or a feature size such \
            as 65nm)"
           node)
  | Some node -> (
      let q =
        {
          node;
          gates;
          rent_p;
          fan_out;
          clock;
          repeater_fraction;
          k;
          miller;
          bunch_size;
          structure;
          algo;
          power_budget;
          activity;
          wld;
        }
      in
      if bunch_size <= 0 then Error "bunch_size must be positive"
      else if not (power_budget > 0.0) then
        Error "power_budget must be positive (watts; omit for unlimited)"
      else if not (activity > 0.0 && activity <= 1.0) then
        Error "activity must be in (0, 1]"
      else if power_budget < infinity && algo = Greedy then
        Error "the greedy algorithm does not support a power budget"
      else
        (* Drive every remaining validation through the real constructors
           so the accepted query space is exactly what the pipeline can
           compute: design parameters, materials, the structure-vs-stack
           compatibility check, and (when no WLD is inline) the Davis
           parameter ranges. *)
        match
          let d = design q in
          let materials = Ir_ia.Materials.v ~k ~miller () in
          let (_ : Ir_ia.Arch.t) =
            Ir_ia.Arch.make ~structure ~materials ~design:d ()
          in
          (match wld with
          | None ->
              ignore (Ir_wld.Davis.params ~gates ~rent_p ~fan_out ())
          | Some w ->
              if Ir_wld.Dist.is_empty w then invalid_arg "empty WLD");
          q
        with
        | q -> check_size q
        | exception Invalid_argument msg -> Error msg)

(* Bumped 1 -> 2 when the power fields joined the canonical form: the
   tag heads every canonical rendering, so the bump rotates every
   digest at once — old persisted cache entries and warm-table
   snapshots simply miss and recompute instead of aliasing pre-power
   results onto power-aware semantics.  Within version 2 the power
   fields are emitted only when they change the answer, so a future
   field addition under the same rule again preserves the digests of
   queries that don't use it. *)
let version_tag = "ia-rank/fingerprint/2"

(* %.17g round-trips every finite float, so bit-equal parameters — and
   only those — canonicalize identically. *)
let fl = Printf.sprintf "%.17g"

let canonical_fields q =
  (* The power fields are emitted only when they change the answer: an
     unconstrained budget at the default activity is semantically the
     pre-power query, and activity only enters the answer under a
     finite budget.  That keeps every other query's digest — and the
     whole disk cache — valid across the field's introduction. *)
  (if q.power_budget < infinity then
       [ ("power_budget", fl q.power_budget) ]
     else [])
  @ (if
       q.activity <> Ir_assign.Problem.default_activity
       && q.power_budget < infinity
     then [ ("activity", fl q.activity) ]
     else [])
  @ [
    ("algo", algo_name q.algo);
    ("bunch_size", string_of_int q.bunch_size);
    ("clock_hz", fl q.clock);
    ("fan_out", fl q.fan_out);
    ("gates", string_of_int q.gates);
    ("k", fl q.k);
    ("miller", fl q.miller);
    ("node", Ir_tech.Node.name q.node);
    ("rent_p", fl q.rent_p);
    ("repeater_fraction", fl q.repeater_fraction);
    ( "structure",
      Printf.sprintf "%d,%d,%d" q.structure.Ir_ia.Arch.local_pairs
        q.structure.Ir_ia.Arch.semi_global_pairs
        q.structure.Ir_ia.Arch.global_pairs );
    ( "wld",
      match q.wld with
      | None -> "davis"
      (* The inline WLD contributes the digest of its canonical CSV
         rendering (ascending merged bins), so equal distributions —
         whatever order the client listed them in — fingerprint equal. *)
      | Some w ->
          "inline:" ^ Digest.to_hex (Digest.string (Ir_wld.Io.to_string w))
    );
  ]

let canonical_of_fields fields =
  let buf = Buffer.create 256 in
  Buffer.add_string buf version_tag;
  Buffer.add_char buf '\n';
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf k;
      Buffer.add_char buf '=';
      Buffer.add_string buf v;
      Buffer.add_char buf '\n')
    (List.sort (fun (a, _) (b, _) -> String.compare a b) fields);
  Buffer.contents buf

let canonical q = canonical_of_fields (canonical_fields q)
let digest q = Digest.to_hex (Digest.string (canonical q))

(* The warm-table pool serves every repeater fraction and power budget
   of a family from tables built once at the full budget (a power budget
   is an area cap on the same budget), and the algorithm choice never
   enters phase A — mask them all out of the key.  The power fields are
   dropped rather than starred: they are absent from an unpowered query's
   canonical form, so dropping them keeps its key unchanged. *)
let budget_masked q =
  List.filter_map
    (fun (name, v) ->
      match name with
      | "power_budget" | "activity" -> None
      | "repeater_fraction" | "algo" -> Some (name, "*")
      | _ -> Some (name, v))
    (canonical_fields q)

let table_key q =
  let masked = budget_masked q in
  Digest.to_hex (Digest.string (canonical_of_fields masked))

(* The grid family additionally masks materials and clock: those are the
   coordinates a resident {!Ir_core.Rank_grid} perturbs over (each value
   pair is its own plane inside the grid), while the design size, WLD,
   bunching and structure pin the family. *)
let family_key q =
  let masked =
    List.map
      (fun (name, v) ->
        match name with "k" | "miller" | "clock_hz" -> (name, "*") | _ -> (name, v))
      (budget_masked q)
  in
  Digest.to_hex (Digest.string (canonical_of_fields masked))

let problem q =
  let d = design q in
  let materials = Ir_ia.Materials.v ~k:q.k ~miller:q.miller () in
  let arch =
    Ir_ia.Arch.make ~structure:q.structure ~materials ~design:d ()
  in
  let wld =
    match q.wld with
    | Some w -> w
    | None ->
        Ir_wld.Davis.generate
          (Ir_wld.Davis.params ~gates:q.gates ~rent_p:q.rent_p
             ~fan_out:q.fan_out ())
  in
  Ir_assign.Problem.make ~bunch_size:q.bunch_size ~activity:q.activity
    ~power_budget:q.power_budget ~arch ~wld ()

let compute_cold q =
  let algo =
    match q.algo with
    | Dp -> Ir_core.Rank.Dp
    | Greedy -> Ir_core.Rank.Greedy
  in
  Ir_core.Rank.compute ~algo (problem q)
