type bin = { length : float; count : int } [@@deriving show, eq]
type t = { bins : bin array; total : int } [@@deriving show, eq]

let check_length l =
  if not (l > 0.0) then invalid_arg "Dist.of_bins: lengths must be > 0";
  if l = infinity then invalid_arg "Dist.of_bins: lengths must be finite"

let check_bin b =
  if b.count < 0 then invalid_arg "Dist.of_bins: negative count";
  check_length b.length

let total_of bins = Array.fold_left (fun acc b -> acc + b.count) 0 bins

(* Drops empty bins, sorts by length (stably) and merges equal lengths. *)
let of_bins bins =
  List.iter check_bin bins;
  let nonzero = List.filter (fun b -> b.count > 0) bins in
  let sorted = List.sort (fun a b -> Float.compare a.length b.length) nonzero in
  let merged =
    List.fold_left
      (fun acc b ->
        match acc with
        | prev :: rest when prev.length = b.length ->
            { prev with count = prev.count + b.count } :: rest
        | _ -> b :: acc)
      [] sorted
    |> List.rev
  in
  let bins = Array.of_list merged in
  { bins; total = total_of bins }

let of_array a =
  Array.iteri
    (fun i b ->
      check_bin b;
      if b.count = 0 || (i > 0 && not (a.(i - 1).length < b.length)) then
        invalid_arg "Dist.of_array: bins must be non-empty and ascending")
    a;
  { bins = a; total = total_of a }

let bins t = Array.copy t.bins
let total t = t.total
let n_bins t = Array.length t.bins
let is_empty t = t.total = 0

let l_max t =
  if is_empty t then invalid_arg "Dist.l_max: empty distribution";
  t.bins.(Array.length t.bins - 1).length

let l_min t =
  if is_empty t then invalid_arg "Dist.l_min: empty distribution";
  t.bins.(0).length

let mean_length t =
  if is_empty t then 0.0
  else
    let sum =
      Array.fold_left
        (fun acc b -> acc +. (b.length *. float_of_int b.count))
        0.0 t.bins
    in
    sum /. float_of_int t.total

let total_wire_length t =
  Array.fold_left
    (fun acc b -> acc +. (b.length *. float_of_int b.count))
    0.0 t.bins

let count_at_least t l =
  Array.fold_left
    (fun acc b -> if b.length >= l then acc + b.count else acc)
    0 t.bins

let to_desc_list t = Array.fold_left (fun acc b -> b :: acc) [] t.bins

let length_at_rank t r =
  if r < 1 || r > t.total then invalid_arg "Dist.length_at_rank: out of range";
  let rec find i remaining =
    let b = t.bins.(i) in
    if remaining <= b.count then b.length else find (i - 1) (remaining - b.count)
  in
  find (Array.length t.bins - 1) r

let map_length f t =
  of_bins
    (Array.to_list t.bins
    |> List.map (fun b -> { b with length = f b.length }))

let check_invariants t =
  let problems = ref [] in
  let add msg = problems := msg :: !problems in
  Array.iteri
    (fun i b ->
      if b.count <= 0 then add (Printf.sprintf "bin %d: non-positive count" i);
      if not (b.length > 0.0) then
        add (Printf.sprintf "bin %d: non-positive length" i);
      if b.length = infinity then
        add (Printf.sprintf "bin %d: infinite length" i);
      if i > 0 && t.bins.(i - 1).length >= b.length then
        add (Printf.sprintf "bin %d: not strictly ascending" i))
    t.bins;
  let sum = Array.fold_left (fun acc b -> acc + b.count) 0 t.bins in
  if sum <> t.total then add "total does not match bin counts";
  match !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " (List.rev ps))
