type bin = { length : float; count : int } [@@deriving show, eq]

(* The printed form is the bins as records, whatever the layout. *)
type printed = { bins : bin array; total : int } [@@deriving show]

(* Two columns, ascending by length: one float array (flat, unboxed) and
   one int array, instead of a record per bin. *)
type t = { lengths : float array; counts : int array; total : int }
[@@deriving eq]

let check_length l =
  if not (l > 0.0) then invalid_arg "Dist.of_bins: lengths must be > 0";
  if l = infinity then invalid_arg "Dist.of_bins: lengths must be finite"

let check_count c = if c < 0 then invalid_arg "Dist.of_bins: negative count"

let total_of counts = Array.fold_left ( + ) 0 counts

let of_columns lengths counts =
  if Array.length lengths <> Array.length counts then
    invalid_arg "Dist.of_columns: columns differ in length";
  for i = 0 to Array.length lengths - 1 do
    let l = lengths.(i) and c = counts.(i) in
    check_count c;
    check_length l;
    if c = 0 || (i > 0 && not (lengths.(i - 1) < l)) then
      invalid_arg "Dist.of_columns: bins must be non-empty and ascending"
  done;
  { lengths; counts; total = total_of counts }

(* Drops empty bins, sorts by length (stably) and merges equal lengths. *)
let of_bins bins =
  List.iter
    (fun b ->
      check_count b.count;
      check_length b.length)
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
  let lengths = Array.of_list (List.map (fun b -> b.length) merged)
  and counts = Array.of_list (List.map (fun b -> b.count) merged) in
  { lengths; counts; total = total_of counts }

let n_bins t = Array.length t.lengths
let[@inline] bin_length t i = t.lengths.(i)
let[@inline] bin_count t i = t.counts.(i)
let bins t =
  Array.init (n_bins t) (fun i ->
      { length = bin_length t i; count = bin_count t i })
let pp fmt t = pp_printed fmt { bins = bins t; total = t.total }
let show t = Format.asprintf "%a" pp t
let total t = t.total
let is_empty t = t.total = 0

let l_max t =
  if is_empty t then invalid_arg "Dist.l_max: empty distribution";
  t.lengths.(n_bins t - 1)

let l_min t =
  if is_empty t then invalid_arg "Dist.l_min: empty distribution";
  t.lengths.(0)

let total_wire_length t =
  let sum = ref 0.0 in
  for i = 0 to n_bins t - 1 do
    sum := !sum +. (t.lengths.(i) *. float_of_int t.counts.(i))
  done;
  !sum

let mean_length t =
  if is_empty t then 0.0 else total_wire_length t /. float_of_int t.total

let count_at_least t l =
  let acc = ref 0 in
  for i = 0 to n_bins t - 1 do
    if t.lengths.(i) >= l then acc := !acc + t.counts.(i)
  done;
  !acc

let to_desc_list t =
  List.init (n_bins t) (fun k ->
      let i = n_bins t - 1 - k in
      { length = bin_length t i; count = bin_count t i })

let length_at_rank t r =
  if r < 1 || r > t.total then invalid_arg "Dist.length_at_rank: out of range";
  let rec find i remaining =
    let c = t.counts.(i) in
    if remaining <= c then t.lengths.(i) else find (i - 1) (remaining - c)
  in
  find (n_bins t - 1) r

let map_length f t =
  of_bins
    (List.init (n_bins t) (fun i ->
         { length = f (bin_length t i); count = bin_count t i }))

let check_invariants t =
  let problems = ref [] in
  let add msg = problems := msg :: !problems in
  if Array.length t.lengths <> Array.length t.counts then
    add "columns differ in length"
  else
    Array.iteri
      (fun i l ->
        if t.counts.(i) <= 0 then
          add (Printf.sprintf "bin %d: non-positive count" i);
        if not (l > 0.0) then
          add (Printf.sprintf "bin %d: non-positive length" i);
        if l = infinity then add (Printf.sprintf "bin %d: infinite length" i);
        if i > 0 && t.lengths.(i - 1) >= l then
          add (Printf.sprintf "bin %d: not strictly ascending" i))
      t.lengths;
  if total_of t.counts <> t.total then add "total does not match bin counts";
  match !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " (List.rev ps))
