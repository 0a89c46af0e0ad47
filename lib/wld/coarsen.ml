(* Bunches per bin: the ceiling of [c / s], without the overflow of
   [(c + s - 1) / s] at [s] near [max_int]. *)
let bunches_of ~bunch_size c =
  (c / bunch_size) + if c mod bunch_size > 0 then 1 else 0

type bunches = { lengths : float array; counts : int array }

(* With [pitch > 0] the scaling is monotone, so the scaled bins stay
   ascending and only neighbours can become equal; those merge, as
   [Dist.of_bins] merges them.  A first pass over [d]'s columns checks
   every scaled length ([Dist.of_bins]' own check) and sizes the output;
   the second walks the merged bins longest first and splits each into
   bunches, the partial bunch first, straight into the two columns. *)
let bunch ~bunch_size ~pitch d =
  if bunch_size <= 0 then invalid_arg "Coarsen.bunch: bunch_size must be > 0";
  let k = Dist.n_bins d in
  let n = ref 0 and c = ref 0 in
  for i = 0 to k - 1 do
    let l = Dist.bin_length d i *. pitch in
    Dist.check_length l;
    c := !c + Dist.bin_count d i;
    if i = k - 1 || Dist.bin_length d (i + 1) *. pitch <> l then begin
      n := !n + bunches_of ~bunch_size !c;
      c := 0
    end
  done;
  let lengths = Array.make !n 0.0 and counts = Array.make !n 0 in
  let pos = ref 0 in
  let i = ref (k - 1) in
  while !i >= 0 do
    let l = Dist.bin_length d !i *. pitch in
    let c = ref (Dist.bin_count d !i) in
    decr i;
    while !i >= 0 && Dist.bin_length d !i *. pitch = l do
      c := !c + Dist.bin_count d !i;
      decr i
    done;
    let partial = !c mod bunch_size in
    if partial > 0 then begin
      lengths.(!pos) <- l;
      counts.(!pos) <- partial;
      incr pos
    end;
    for _ = 1 to !c / bunch_size do
      lengths.(!pos) <- l;
      counts.(!pos) <- bunch_size;
      incr pos
    done
  done;
  { lengths; counts }

let bunch_count ~bunch_size d =
  if bunch_size <= 0 then
    invalid_arg "Coarsen.bunch_count: bunch_size must be > 0";
  let acc = ref 0 in
  for i = 0 to Dist.n_bins d - 1 do
    let here = bunches_of ~bunch_size (Dist.bin_count d i) in
    acc := if here > max_int - !acc then max_int else !acc + here
  done;
  !acc

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
  let acc = ref 0 in
  for i = 0 to Dist.n_bins d - 1 do
    acc := max !acc (min (Dist.bin_count d i) bunch_size)
  done;
  !acc
