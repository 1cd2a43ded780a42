type coeffs = { b0 : float; b1 : float; b2 : float; a1 : float; a2 : float }

let butterworth_lowpass ~sample_rate ~cutoff =
  assert (cutoff > 0.0 && cutoff < sample_rate /. 2.0);
  (* Bilinear transform with pre-warping: K = tan(pi fc / fs). *)
  let k = tan (Float.pi *. cutoff /. sample_rate) in
  let q = 1.0 /. sqrt 2.0 in
  let k2 = k *. k in
  let norm = 1.0 /. (1.0 +. (k /. q) +. k2) in
  { b0 = k2 *. norm;
    b1 = 2.0 *. k2 *. norm;
    b2 = k2 *. norm;
    a1 = 2.0 *. (k2 -. 1.0) *. norm;
    a2 = (1.0 -. (k /. q) +. k2) *. norm }

(* Direct form I from rest.  The delay line lives in local float refs,
   which the compiler keeps unboxed, so the block loop allocates nothing. *)
let filter_into { b0; b1; b2; a1; a2 } buf =
  let x1 = ref 0.0 and x2 = ref 0.0 and y1 = ref 0.0 and y2 = ref 0.0 in
  for i = 0 to Array.length buf - 1 do
    let x = Array.unsafe_get buf i in
    let y = (b0 *. x) +. (b1 *. !x1) +. (b2 *. !x2) -. (a1 *. !y1) -. (a2 *. !y2) in
    x2 := !x1;
    x1 := x;
    y2 := !y1;
    y1 := y;
    Array.unsafe_set buf i y
  done

let magnitude_db c ~sample_rate ~freq =
  let w = Msoc_util.Units.two_pi *. freq /. sample_rate in
  let z1 = { Complex.re = cos w; im = -.sin w } in
  let z2 = Complex.mul z1 z1 in
  let scale k = { Complex.re = k; im = 0.0 } in
  let num =
    Complex.add (scale c.b0) (Complex.add (Complex.mul (scale c.b1) z1) (Complex.mul (scale c.b2) z2))
  in
  let den =
    Complex.add (scale 1.0) (Complex.add (Complex.mul (scale c.a1) z1) (Complex.mul (scale c.a2) z2))
  in
  let mag = Complex.norm num /. Complex.norm den in
  if mag <= 1e-20 then -400.0 else 20.0 *. Float.log10 mag

let cascade_magnitude_db coeffs_list ~sample_rate ~freq =
  List.fold_left (fun acc c -> acc +. magnitude_db c ~sample_rate ~freq) 0.0 coeffs_list
