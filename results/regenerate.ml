(* Artifact check: regenerates the committed Table 4 CSVs (Table4.all)
   and cross-node CSV (Cross_node.run over the node/gates rows of the
   committed cross_node.csv itself, so the matrix is written down once)
   into OUT_DIR and compares each with its committed copy byte for byte,
   after dropping the timing column named "sec".

     regenerate.exe COMMITTED_DIR OUT_DIR

   Exits 1 naming the first differing line of every stale file. *)

let read path = In_channel.with_open_bin path In_channel.input_all

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt

(* The CSV's lines with the column headed [sec] removed. *)
let without_sec contents =
  match String.split_on_char '\n' contents with
  | [] -> []
  | header :: _ as lines -> (
      let fields l = String.split_on_char ',' l in
      match List.find_index (String.equal "sec") (fields header) with
      | None -> lines
      | Some col ->
          List.map
            (fun l ->
              if l = "" then l
              else
                String.concat ","
                  (List.filteri (fun i _ -> i <> col) (fields l)))
            lines)

let matrix_of_cross_csv contents =
  let lines = String.split_on_char '\n' contents in
  match List.map (String.split_on_char ',') lines with
  | [] -> fail "cross_node.csv is empty"
  | header :: rows ->
      let col name =
        match List.find_index (String.equal name) header with
        | Some i -> i
        | None -> fail "cross_node.csv has no %S column" name
      in
      let node_col = col "node" and gates_col = col "gates" in
      List.filter_map
        (fun row ->
          match row with
          | [ "" ] -> None
          | _ -> (
              let node = List.nth row node_col
              and gates = List.nth row gates_col in
              match (Ir_tech.Node.of_string node, int_of_string_opt gates) with
              | Some n, Some g -> Some (n, g)
              | _ -> fail "cross_node.csv: bad row %s,%s" node gates))
        rows

let () =
  let committed, out =
    match Sys.argv with
    | [| _; committed; out |] -> (committed, out)
    | _ -> fail "usage: regenerate.exe COMMITTED_DIR OUT_DIR"
  in
  let matrix =
    matrix_of_cross_csv (read (Filename.concat committed "cross_node.csv"))
  in
  let written =
    match
      ( Ir_sweep.Export.write_sweeps ~dir:out (Ir_sweep.Table4.all ()),
        Ir_sweep.Export.write_cross ~dir:out
          (Ir_sweep.Cross_node.run ~matrix ()) )
    with
    | Ok sweeps, Ok cross -> sweeps @ [ cross ]
    | Error e, _ | _, Error e -> fail "regenerate: %s" e
  in
  let stale =
    List.filter_map
      (fun path ->
        let name = Filename.basename path in
        let rec first_diff i = function
          | a :: ra, b :: rb ->
              if a = b then first_diff (i + 1) (ra, rb)
              else Some (Printf.sprintf "line %d: %S vs %S" i a b)
          | [], [] -> None
          | _ -> Some (Printf.sprintf "line %d: one file ends" i)
        in
        first_diff 1
          (without_sec (read (Filename.concat committed name)),
           without_sec (read path))
        |> Option.map (fun d ->
               Printf.sprintf "%s is stale (committed vs regenerated), %s"
                 name d))
      written
  in
  if stale <> [] then fail "%s" (String.concat "\n" stale)
