type t = {
  k : float;
  miller : float;
  cap_model : Ir_rc.Capacitance.model;
  rho : float option;
}
[@@deriving show, eq]

let check t =
  if not (t.k > 0.0) then invalid_arg "Materials: k must be > 0";
  if t.miller < 0.0 then invalid_arg "Materials: miller must be >= 0";
  (match t.rho with
  | Some rho when not (rho > 0.0) ->
      invalid_arg "Materials: rho must be > 0"
  | _ -> ());
  t

let v ?(k = Ir_phys.Const.k_sio2) ?(miller = 2.0)
    ?(cap_model = Ir_rc.Capacitance.default_model) ?rho () =
  check { k; miller; cap_model; rho }

let default = v ()
let with_k t k = check { t with k }

let resistivity t node =
  match t.rho with Some rho -> rho | None -> Ir_tech.Node.resistivity node
