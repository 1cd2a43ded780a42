let two_pi = Msoc_util.Units.two_pi

type design = {
  taps : float array;
  cutoff : float;
  window : Window.kind;
}

let sinc x = if Float.abs x < 1e-12 then 1.0 else sin (Float.pi *. x) /. (Float.pi *. x)

let lowpass ~taps ~cutoff ?(window = Window.Hamming) () =
  assert (taps >= 1 && cutoff > 0.0 && cutoff < 0.5);
  let middle = float_of_int (taps - 1) /. 2.0 in
  (* Symmetric window: evaluate the cosine-sum over [0, taps-1] so that the
     coefficient set stays exactly linear-phase. *)
  let win =
    Array.init taps (fun i ->
        let phase = two_pi *. float_of_int i /. float_of_int (max 1 (taps - 1)) in
        match window with
        | Window.Rectangular -> 1.0
        | Window.Hann -> 0.5 -. (0.5 *. cos phase)
        | Window.Hamming -> 0.54 -. (0.46 *. cos phase)
        | Window.Blackman -> 0.42 -. (0.5 *. cos phase) +. (0.08 *. cos (2.0 *. phase))
        | Window.Blackman_harris ->
          0.35875 -. (0.48829 *. cos phase) +. (0.14128 *. cos (2.0 *. phase))
          -. (0.01168 *. cos (3.0 *. phase)))
  in
  let raw =
    Array.init taps (fun i ->
        let x = float_of_int i -. middle in
        2.0 *. cutoff *. sinc (2.0 *. cutoff *. x) *. win.(i))
  in
  let dc = Array.fold_left ( +. ) 0.0 raw in
  let taps_arr = Array.map (fun c -> c /. dc) raw in
  { taps = taps_arr; cutoff; window }

let frequency_response taps ~freq =
  let acc = ref Complex.zero in
  Array.iteri
    (fun i c ->
      let angle = -.two_pi *. freq *. float_of_int i in
      acc := Complex.add !acc { Complex.re = c *. cos angle; im = c *. sin angle })
    taps;
  !acc

let magnitude_db taps ~freq =
  let h = frequency_response taps ~freq in
  let mag = Complex.norm h in
  if mag <= 1e-20 then -400.0 else 20.0 *. Float.log10 mag

let quantize taps ~bits =
  assert (bits >= 2 && bits <= 30);
  let peak = Msoc_util.Floatx.max_abs taps in
  assert (peak > 0.0);
  (* Largest power-of-two scale keeping every code inside the signed range. *)
  let limit = float_of_int ((1 lsl (bits - 1)) - 1) in
  let rec find_shift shift =
    if peak *. Float.pow 2.0 (float_of_int (shift + 1)) <= limit then find_shift (shift + 1)
    else shift
  in
  let shift = find_shift 0 in
  let scale = Float.pow 2.0 (float_of_int (-shift)) in
  let codes = Array.map (fun c -> int_of_float (Float.round (c /. scale))) taps in
  (codes, scale)

let filter taps x =
  let nt = Array.length taps and nx = Array.length x in
  Array.init nx (fun n ->
      let acc = ref 0.0 in
      for k = 0 to min (nt - 1) n do
        acc := !acc +. (taps.(k) *. x.(n - k))
      done;
      !acc)
