(* Shared helpers for the test suites: float assertions, random instance
   generators for the rank algorithms, and qcheck plumbing. *)

let check_close ?(eps = 1e-9) msg expected actual =
  if not (Ir_phys.Numeric.close ~rtol:eps ~atol:eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let check_in_range msg ~lo ~hi x =
  if not (x >= lo && x <= hi) then
    Alcotest.failf "%s: %.12g outside [%.12g, %.12g]" msg x lo hi

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* ---- Bunches as records ---------------------------------------------- *)

(* [Coarsen.bunch] returns, and [Problem.of_bunches] takes, bunches as two
   columns; the tests write them as [Dist.bin] records. *)
let bunch_columns (bins : Ir_wld.Dist.bin array) =
  {
    Ir_wld.Coarsen.lengths = Array.map (fun b -> b.Ir_wld.Dist.length) bins;
    counts = Array.map (fun b -> b.Ir_wld.Dist.count) bins;
  }

let bunch_records (c : Ir_wld.Coarsen.bunches) =
  Array.map2
    (fun length count -> { Ir_wld.Dist.length; count })
    c.Ir_wld.Coarsen.lengths c.Ir_wld.Coarsen.counts

(* [Problem.of_bunches] over records. *)
let of_bunches ?target_model ?noise_limit ?activity ?power_budget ~arch
    ~bunches () =
  Ir_assign.Problem.of_bunches ?target_model ?noise_limit ?activity
    ?power_budget ~arch ~bunches:(bunch_columns bunches) ()

(* ---- Random rank instances ------------------------------------------- *)

(* A synthetic stack with geometry drawn from sensible ranges; the global
   class is not forced to be faster than the others, so layer orderings
   both regular and inverted (the Figure 2 situation) are generated. *)
let gen_geometry =
  let open QCheck2.Gen in
  let dim lo hi = map (fun x -> Ir_phys.Units.um x) (float_range lo hi) in
  let* width = dim 0.1 0.6 in
  let* spacing = dim 0.1 0.6 in
  let* thickness = dim 0.15 1.2 in
  let* via_width = dim 0.1 0.4 in
  return (Ir_tech.Geometry.v ~width ~spacing ~thickness ~via_width ())

let gen_stack =
  let open QCheck2.Gen in
  let* local = gen_geometry in
  let* semi_global = gen_geometry in
  let* global = gen_geometry in
  return
    {
      Ir_tech.Stack.node =
        Ir_tech.Node.Custom { name = "qcheck"; feature = 130e-9 };
      local;
      semi_global;
      global;
      mx_layers = 5;
      mt_layers = 1;
    }

type instance = {
  problem : Ir_assign.Problem.t;
  label : string;  (* reproduction hint in failure output *)
}

(* Random instance: synthetic stack, a small design, and n single-wire
   bunches with decreasing lengths.  Shaped so that all the interesting
   regimes appear: sometimes everything fits, sometimes nothing, usually
   in between. *)
let gen_instance_of ~pairs =
  let open QCheck2.Gen in
  let* stack = gen_stack in
  let* n = int_range 2 8 in
  let* m_total = pairs in
  let* gates_scale = int_range 1 40 in
  let* clock_ghz = float_range 0.2 4.0 in
  let* fraction = float_range 0.01 0.9 in
  let* lengths =
    list_repeat n (float_range 0.05 4.0)
  in
  let node = Ir_tech.Node.Custom { name = "qcheck"; feature = 130e-9 } in
  let gates = 64 * gates_scale in
  let design =
    Ir_tech.Design.v ~node ~gates ~clock:(clock_ghz *. 1e9)
      ~repeater_fraction:fraction ()
  in
  let structure =
    match m_total with
    | 1 -> { Ir_ia.Arch.local_pairs = 0; semi_global_pairs = 1; global_pairs = 0 }
    | 2 -> { Ir_ia.Arch.local_pairs = 0; semi_global_pairs = 1; global_pairs = 1 }
    | 3 -> { Ir_ia.Arch.local_pairs = 1; semi_global_pairs = 1; global_pairs = 1 }
    | _ -> { Ir_ia.Arch.local_pairs = 1; semi_global_pairs = 2; global_pairs = 1 }
  in
  let arch = Ir_ia.Arch.make ~structure ~stack ~design () in
  let sorted = List.sort (fun a b -> Float.compare b a) lengths in
  let bunches =
    Array.of_list
      (List.map
         (fun l -> { Ir_wld.Dist.length = Ir_phys.Units.mm l; count = 1 })
         sorted)
  in
  let problem = of_bunches ~arch ~bunches () in
  let label =
    Printf.sprintf "n=%d m=%d gates=%d clock=%.2fGHz frac=%.2f" n m_total
      gates clock_ghz fraction
  in
  return { problem; label }

let gen_instance = gen_instance_of ~pairs:(QCheck2.Gen.int_range 1 3)

(* Four pairs: phase A builds rows 0..m-1 and expands all but the last,
   so only from m = 4 on does it expand a row (2) whose cells hold more
   than one state — the source chains its dominance pre-check walks. *)
let gen_instance_4pair = gen_instance_of ~pairs:(QCheck2.Gen.return 4)

let baseline_130nm_small ?(gates = 40_000) ?(bunch_size = 500) () =
  (* A scaled-down version of the paper's baseline that keeps sweeps
     fast in unit tests. *)
  let design = Ir_tech.Design.v ~node:Ir_tech.Node.N130 ~gates () in
  let arch = Ir_ia.Arch.make ~design () in
  let wld =
    Ir_wld.Davis.generate
      (Ir_wld.Davis.params ~gates ~rent_p:0.6 ~fan_out:3.0 ())
  in
  Ir_assign.Problem.make ~bunch_size ~arch ~wld ()

(* ---- Counters --------------------------------------------------------- *)

(* The value of counter [name] in [snap].  A name no counter is
   registered under fails the test instead of reading 0, so an assertion
   on a deleted or misspelled counter cannot pass vacuously. *)
let counter_in snap name =
  match Ir_obs.find_counter snap name with
  | Some v -> v
  | None -> Alcotest.failf "no counter named %S is registered" name

(* ---- Reference widen ladder ------------------------------------------ *)

(* The widen ladder as a sequence of complete builds: every rung runs
   all its levels, and each retry decision reads full truncation counts
   — the first retry whenever the rung truncates, each further one only
   if the last retry at least halved the count, never past [widen_cap].
   Returns the last rung's tables and the number of retries. *)
let reference_ladder ~widen_on_overflow ~widen_cap ~max_pareto problem =
  let rec go width prev retries =
    let t = Ir_core.Rank_dp.build_tables ~max_pareto:width problem in
    let truncations = Ir_core.Rank_dp.table_truncations t in
    let converging =
      match prev with None -> true | Some p -> 2 * truncations <= p
    in
    if truncations > 0 && widen_on_overflow && width < widen_cap && converging
    then go (min widen_cap (2 * width)) (Some truncations) (retries + 1)
    else (t, retries)
  in
  go max_pareto None 0

(* ---- Parser fuzzing --------------------------------------------------- *)

(* Fuzz input for a parser: arbitrary bytes, or one valid input with a
   single byte replaced, deleted or inserted. *)
let gen_fuzz valid =
  let open QCheck2.Gen in
  let arbitrary = string_size ~gen:char (int_range 0 200) in
  let mutated =
    let* s = valid in
    let len = String.length s in
    let* i = int_range 0 len in
    let* c = char in
    let* edit = int_range 0 2 in
    let before = String.sub s 0 i in
    return
      (match edit with
      | 0 when i < len ->
          before ^ String.make 1 c ^ String.sub s (i + 1) (len - i - 1)
      | 1 when i < len -> before ^ String.sub s (i + 1) (len - i - 1)
      | _ -> before ^ String.make 1 c ^ String.sub s i (len - i))
  in
  oneof [ arbitrary; mutated ]

(* [parse] must never raise, and must reject with a non-empty message. *)
let fuzz_parser ?(count = 500) name valid parse =
  qtest ~count name (gen_fuzz valid) (fun input ->
      match parse input with
      | Ok _ -> true
      | Error "" -> QCheck2.Test.fail_reportf "%S: empty error message" input
      | Error _ -> true
      | exception e ->
          QCheck2.Test.fail_reportf "%S raised %s" input
            (Printexc.to_string e))
