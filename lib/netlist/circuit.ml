type net = { src : int; dst : int } [@@deriving show, eq]

type t = {
  width : int;
  height : int;
  rent_p : float;
  fan_out : float;
  nets : net array;
}
[@@deriving show]

let gates t = t.width * t.height

let position t i =
  if i < 0 || i >= gates t then invalid_arg "Circuit.position: out of range";
  (i mod t.width, i / t.width)

(* Smallest power-of-two side whose square holds [gates]. *)
let side_for gates =
  let rec grow s = if s * s >= gates then s else grow (2 * s) in
  grow 1

let generate ?(seed = 42) ?(rent_p = 0.6) ?(fan_out = 3.0) ~gates () =
  if gates <= 0 then invalid_arg "Circuit.generate: gates must be > 0";
  if not (rent_p > 0.0 && rent_p < 1.0) then
    invalid_arg "Circuit.generate: rent_p must lie in (0, 1)";
  if not (fan_out > 0.0) then
    invalid_arg "Circuit.generate: fan_out must be > 0";
  let side = side_for gates in
  let rng = Random.State.make [| seed |] in
  let k_rent = fan_out +. 1.0 in
  let alpha = fan_out /. (fan_out +. 1.0) in
  let terminals b = k_rent *. Float.pow (float_of_int b) rent_p in
  let nets = ref [] in
  let gate_at x y = (y * side) + x in
  (* Uniform gate inside the square block at (x0, y0) with side s. *)
  let random_gate x0 y0 s =
    gate_at (x0 + Random.State.int rng s) (y0 + Random.State.int rng s)
  in
  let rec build x0 y0 s =
    if s > 1 then begin
      let h = s / 2 in
      let block = s * s and child = h * h in
      (* Two-pin nets crossing between the four children at this level:
         each crossing net consumes one terminal of two children, so
         crossings = alpha * (4 T(child) - T(block)) / 2, the Davis/Rent
         bookkeeping with the multi-fan-out source fraction alpha. *)
      let crossings =
        int_of_float
          (Float.round
             (alpha
             *. ((4.0 *. terminals child) -. terminals block)
             /. 2.0))
      in
      let quadrant = [| (x0, y0); (x0 + h, y0); (x0, y0 + h); (x0 + h, y0 + h) |] in
      for _ = 1 to max 0 crossings do
        let a = Random.State.int rng 4 in
        let b = (a + 1 + Random.State.int rng 3) mod 4 in
        let ax, ay = quadrant.(a) and bx, by = quadrant.(b) in
        nets := { src = random_gate ax ay h; dst = random_gate bx by h } :: !nets
      done;
      Array.iter (fun (cx, cy) -> build cx cy h) quadrant
    end
  in
  build 0 0 side;
  {
    width = side;
    height = side;
    rent_p;
    fan_out;
    nets = Array.of_list !nets;
  }
