type summary = {
  count : int;
  mean : float;
  variance : float;
  stddev : float;
  minimum : float;
  maximum : float;
}

(* Welford's online algorithm: numerically stable single pass. *)
let summarize xs =
  assert (Array.length xs > 0);
  let count = ref 0 and mean = ref 0.0 and m2 = ref 0.0 in
  let minimum = ref infinity and maximum = ref neg_infinity in
  Array.iter
    (fun x ->
      incr count;
      let delta = x -. !mean in
      mean := !mean +. (delta /. float_of_int !count);
      m2 := !m2 +. (delta *. (x -. !mean));
      if x < !minimum then minimum := x;
      if x > !maximum then maximum := x)
    xs;
  let variance = if !count < 2 then 0.0 else !m2 /. float_of_int (!count - 1) in
  { count = !count; mean = !mean; variance; stddev = sqrt variance;
    minimum = !minimum; maximum = !maximum }

let percentile xs p =
  assert (Array.length xs > 0 && p >= 0.0 && p <= 1.0);
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let position = p *. float_of_int (n - 1) in
  let below = int_of_float (Float.floor position) in
  let above = min (below + 1) (n - 1) in
  let fraction = position -. float_of_int below in
  sorted.(below) +. (fraction *. (sorted.(above) -. sorted.(below)))

let median xs = percentile xs 0.5

(* 95% normal-approximation half-widths.  Bench samples are plentiful
   (hundreds of Bechamel runs), so z = 1.96 is adequate — no t-table. *)
let z95 = 1.959964

let welch_ci95 ~stddev_a ~n_a ~stddev_b ~n_b =
  if n_a < 2 || n_b < 2 then 0.0
  else
    z95
    *. sqrt
         (((stddev_a *. stddev_a) /. float_of_int n_a)
          +. ((stddev_b *. stddev_b) /. float_of_int n_b))

let rms xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let acc = Msoc_util.Floatx.sum (Array.map (fun x -> x *. x) xs) in
    sqrt (acc /. float_of_int n)
  end
