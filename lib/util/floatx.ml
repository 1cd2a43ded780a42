let clamp ~lo ~hi x =
  assert (lo <= hi);
  if x < lo then lo else if x > hi then hi else x

let linspace a b n =
  assert (n >= 2);
  let step = (b -. a) /. float_of_int (n - 1) in
  Array.init n (fun i -> a +. (float_of_int i *. step))

(* Kahan summation: the correction term recovers the low-order bits lost when
   accumulating values of very different magnitude (common in spectra). *)
let sum xs =
  let total = ref 0.0 and correction = ref 0.0 in
  Array.iter
    (fun x ->
      let y = x -. !correction in
      let t = !total +. y in
      correction := t -. !total -. y;
      total := t)
    xs;
  !total

let max_abs xs = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 xs
