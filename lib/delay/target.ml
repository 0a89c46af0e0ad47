type t =
  | Linear
  | Affine of { floor : float }
  | Quadratic_blend of { weight : float }
[@@deriving show, eq]

(* The per-call constants of [delay]: the clock and [l_max] checks and
   the period. *)
let period ~clock ~l_max =
  if not (clock > 0.0) then invalid_arg "Target.delay: clock must be > 0";
  if not (l_max > 0.0) then invalid_arg "Target.delay: l_max must be > 0";
  1.0 /. clock

let check_model t ~period =
  match t with
  | Linear -> ()
  | Affine { floor } ->
      if floor < 0.0 || floor >= period then
        invalid_arg "Target.delay: floor must lie in [0, period)"
  | Quadratic_blend { weight } ->
      if weight < 0.0 || weight > 1.0 then
        invalid_arg "Target.delay: weight must lie in [0, 1]"

(* The target at [l] from the constants; [x] is [Float.min 1.0 (l /.
   l_max)] spelled out (the same float for every [l], NaN included). *)
let[@inline] at t ~period ~l_max l =
  if l < 0.0 || l > l_max *. (1.0 +. 1e-9) then
    invalid_arg "Target.delay: length outside [0, l_max]";
  let x = l /. l_max in
  let x = if x > 1.0 then 1.0 else x in
  match t with
  | Linear -> x *. period
  | Affine { floor } -> floor +. (x *. (period -. floor))
  | Quadratic_blend { weight } ->
      period *. (((1.0 -. weight) *. x) +. (weight *. x *. x))

let delay t ~clock ~l_max l =
  let period = period ~clock ~l_max in
  let d = at t ~period ~l_max l in
  check_model t ~period;
  d

let delays t ~clock ~l_max lengths =
  let period = period ~clock ~l_max in
  check_model t ~period;
  let out = Array.create_float (Array.length lengths) in
  for i = 0 to Array.length lengths - 1 do
    out.(i) <- at t ~period ~l_max lengths.(i)
  done;
  out

let monotone_check t ~clock ~l_max =
  let samples = Ir_phys.Numeric.linspace 0.0 l_max 64 in
  let rec check prev = function
    | [] -> true
    | l :: rest ->
        let d = delay t ~clock ~l_max l in
        if d +. 1e-18 < prev then false else check d rest
  in
  check neg_infinity samples
