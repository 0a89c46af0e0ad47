(* Bunches per bin: the ceiling of [c / s], without the overflow of
   [(c + s - 1) / s] at [s] near [max_int]. *)
let bunches_of ~bunch_size c =
  (c / bunch_size) + if c mod bunch_size > 0 then 1 else 0

(* The scaled lengths are checked by [Dist.of_bins]' own check.  With
   [pitch > 0] the scaling is monotone, so the bins stay ascending and
   only neighbours can become equal; those merge, as [Dist.of_bins]
   merges them.  Each bin then splits into bunches, written longest bin
   first into an array sized by a first pass: within a bin the partial
   bunch comes first, then the full ones. *)
let bunch ~bunch_size ~pitch d =
  if bunch_size <= 0 then invalid_arg "Coarsen.bunch: bunch_size must be > 0";
  let bins = Dist.bins d in
  let k = Array.length bins in
  let lengths = Array.make k 0.0 and counts = Array.make k 0 in
  let m = ref 0 in
  Array.iter
    (fun (b : Dist.bin) ->
      let l = b.length *. pitch in
      Dist.check_length l;
      if !m > 0 && lengths.(!m - 1) = l then
        counts.(!m - 1) <- counts.(!m - 1) + b.count
      else begin
        lengths.(!m) <- l;
        counts.(!m) <- b.count;
        incr m
      end)
    bins;
  let n = ref 0 in
  for i = 0 to !m - 1 do
    n := !n + bunches_of ~bunch_size counts.(i)
  done;
  let out = Array.make !n { Dist.length = 0.0; count = 0 } in
  let pos = ref 0 in
  let put length count =
    out.(!pos) <- { Dist.length; count };
    incr pos
  in
  for i = !m - 1 downto 0 do
    let c = counts.(i) in
    let partial = c mod bunch_size in
    if partial > 0 then put lengths.(i) partial;
    for _ = 1 to c / bunch_size do
      put lengths.(i) bunch_size
    done
  done;
  out

let bunch_count ~bunch_size d =
  if bunch_size <= 0 then
    invalid_arg "Coarsen.bunch_count: bunch_size must be > 0";
  Array.fold_left
    (fun acc (b : Dist.bin) ->
      let here = bunches_of ~bunch_size b.count in
      if here > max_int - acc then max_int else acc + here)
    0 (Dist.bins d)

let bin ~group d =
  if group <= 0 then invalid_arg "Coarsen.bin: group must be > 0";
  let bins = Dist.bins d in
  let merged = ref [] in
  let i = ref 0 in
  let n = Array.length bins in
  while !i < n do
    let stop = min n (!i + group) in
    let count = ref 0 and weighted = ref 0.0 in
    for j = !i to stop - 1 do
      count := !count + bins.(j).count;
      weighted := !weighted +. (bins.(j).length *. float_of_int bins.(j).count)
    done;
    if !count > 0 then
      merged :=
        { Dist.length = !weighted /. float_of_int !count; count = !count }
        :: !merged;
    i := stop
  done;
  Dist.of_bins (List.rev !merged)

let max_bunch_error ~bunch_size d =
  if Dist.is_empty d then 0
  else
    Array.fold_left
      (fun acc (b : Dist.bin) ->
        let largest =
          if b.count >= bunch_size then bunch_size
          else b.count
        in
        max acc largest)
      0 (Dist.bins d)
