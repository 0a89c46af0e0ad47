type bin = { length : float; count : int } [@@deriving show, eq]
type t = { bins : bin array; total : int } [@@deriving show, eq]

let of_bins bins =
  List.iter
    (fun b ->
      if b.count < 0 then invalid_arg "Dist.of_bins: negative count";
      if not (b.length > 0.0) then
        invalid_arg "Dist.of_bins: lengths must be > 0";
      if b.length = infinity then
        invalid_arg "Dist.of_bins: lengths must be finite")
    bins;
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
  let total = Array.fold_left (fun acc b -> acc + b.count) 0 bins in
  { bins; total }

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

let fold_desc f init t =
  let acc = ref init in
  for i = Array.length t.bins - 1 downto 0 do
    let b = t.bins.(i) in
    acc := f ~acc:!acc ~length:b.length ~count:b.count
  done;
  !acc

let to_desc_list t = fold_desc (fun ~acc ~length ~count -> { length; count } :: acc) [] t |> List.rev

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
