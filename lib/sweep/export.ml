let rec ensure_dir dir =
  if Sys.file_exists dir then
    if Sys.is_directory dir then Ok ()
    else
      Error
        (Printf.sprintf
           "%s exists and is not a directory (remove it or pick another \
            output directory)"
           dir)
  else
    let parent = Filename.dirname dir in
    (* [dirname] is a fixpoint at roots ("/", "."), which always exist,
       so the recursion terminates there. *)
    match if parent = dir then Ok () else ensure_dir parent with
    | Error _ as e -> e
    | Ok () -> (
        match Sys.mkdir dir 0o755 with
        | () -> Ok ()
        | exception Sys_error msg ->
            (* Another process may have created it between the existence
               check and the mkdir; that is success, not an error. *)
            if Sys.file_exists dir && Sys.is_directory dir then Ok ()
            else Error msg)

let write_file path contents =
  match
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc contents)
  with
  | () -> Ok path
  | exception Sys_error msg -> Error msg

let sweep_csv_path ~dir (sweep : Table4.sweep) =
  Filename.concat dir
    (Printf.sprintf "table4_%s.csv" (String.lowercase_ascii sweep.name))

(* [sweep_csv_path] lowercases the sweep name, so distinct sweeps can
   collide on one file ("K" and "k" both map to table4_k.csv) — detect
   that up front instead of silently overwriting the earlier sweep. *)
let sweep_path_collision ~dir sweeps =
  let seen = Hashtbl.create 8 in
  List.find_map
    (fun (s : Table4.sweep) ->
      let path = sweep_csv_path ~dir s in
      match Hashtbl.find_opt seen path with
      | Some earlier when earlier <> s.name ->
          Some
            (Printf.sprintf
               "sweeps %S and %S both export to %s; rename one" earlier
               s.name path)
      | _ ->
          Hashtbl.replace seen path s.name;
          None)
    sweeps

let write_sweeps ~dir sweeps =
  match sweep_path_collision ~dir sweeps with
  | Some msg -> Error msg
  | None -> (
      match ensure_dir dir with
      | Error _ as e -> e
      | Ok () ->
          let rec loop acc = function
            | [] -> Ok (List.rev acc)
            | sweep :: rest -> (
                let buf = Buffer.create 1024 in
                Report.sweep_csv sweep buf;
                match
                  write_file (sweep_csv_path ~dir sweep)
                    (Buffer.contents buf)
                with
                | Ok path -> loop (path :: acc) rest
                | Error _ as e -> e)
          in
          loop [] sweeps)

let power_pareto_csv_path ~dir = Filename.concat dir "power_pareto.csv"

let write_power_pareto ~dir (r : Power_pareto.result) =
  match ensure_dir dir with
  | Error msg -> Error msg
  | Ok () ->
      let buf = Buffer.create 1024 in
      Report.csv
        ~header:
          [
            "fraction"; "budget_watts"; "power_watts"; "rank_wires";
            "total_wires"; "normalized"; "boundary_bunch"; "assignable";
            "exact";
          ]
        ~rows:
          (List.map
             (fun (row : Power_pareto.row) ->
               let o = row.outcome in
               [
                 Printf.sprintf "%.4f" row.fraction;
                 (* %.6e keeps the golden file stable and readable; the
                    byte-exact frontier lives in the tests, not here. *)
                 Printf.sprintf "%.6e" row.budget;
                 Printf.sprintf "%.6e" row.power;
                 string_of_int o.Ir_core.Outcome.rank_wires;
                 string_of_int o.Ir_core.Outcome.total_wires;
                 Printf.sprintf "%.6f" (Ir_core.Outcome.normalized o);
                 string_of_int o.Ir_core.Outcome.boundary_bunch;
                 (if o.Ir_core.Outcome.assignable then "true" else "false");
                 (if o.Ir_core.Outcome.exact then "true" else "false");
               ])
             r.Power_pareto.rows)
        buf;
      write_file (power_pareto_csv_path ~dir) (Buffer.contents buf)

let write_cross ~dir cells =
  match ensure_dir dir with
  | Error msg -> Error msg
  | Ok () ->
      let buf = Buffer.create 512 in
      Report.csv
        ~header:[ "node"; "gates"; "normalized"; "rank_wires"; "total" ]
        ~rows:
          (List.map
             (fun (c : Cross_node.cell) ->
               [
                 Ir_tech.Node.name c.node;
                 string_of_int c.gates;
                 Printf.sprintf "%.6f" (Ir_core.Outcome.normalized c.outcome);
                 string_of_int c.outcome.Ir_core.Outcome.rank_wires;
                 string_of_int c.outcome.Ir_core.Outcome.total_wires;
               ])
             cells)
        buf;
      write_file (Filename.concat dir "cross_node.csv") (Buffer.contents buf)
