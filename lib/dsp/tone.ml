let two_pi = Msoc_util.Units.two_pi

type component = { freq : float; amplitude : float; phase : float }

let component ?(phase = 0.0) ~freq ~amplitude () = { freq; amplitude; phase }

let coherent_frequency ~sample_rate ~samples ~target =
  assert (target > 0.0 && target < sample_rate /. 2.0);
  let cycles = target *. float_of_int samples /. sample_rate in
  let k = int_of_float (Float.round cycles) in
  let k = if k mod 2 = 0 then (if cycles > float_of_int k then k + 1 else max 1 (k - 1)) else k in
  let k = max 1 (min k ((samples / 2) - 1)) in
  float_of_int k *. sample_rate /. float_of_int samples

(* The unit sine of one component at one instant: the only place the
   waveform's sine is written, so a stored unit waveform and a point
   computed afresh agree bit for bit. *)
let[@inline] unit_point ~freq ~phase ~time = sin ((two_pi *. freq *. time) +. phase)

(* One point of the waveform: the components summed in list order (the
   virtual tester's golden fixtures pin the resulting codes bit for bit).
   The components sit in an array of all-float records and the sum in a
   local ref, so once inlined into [synthesize_into]'s loop a point
   allocates nothing. *)
let[@inline] point components ~time =
  let acc = ref 0.0 in
  for j = 0 to Array.length components - 1 do
    let { freq; amplitude; phase } = Array.unsafe_get components j in
    acc := !acc +. (amplitude *. unit_point ~freq ~phase ~time)
  done;
  !acc

let sample ~sample_rate ~t components =
  point (Array.of_list components) ~time:(float_of_int t /. sample_rate)

let synthesize_into ~sample_rate components out =
  let components = Array.of_list components in
  for t = 0 to Array.length out - 1 do
    Array.unsafe_set out t (point components ~time:(float_of_int t /. sample_rate))
  done

type unit_wave = {
  wave : float array;  (* [unit_point] of the key below at every sample *)
  mutable filled : bool;
  mutable freq : float;
  mutable phase : float;
  mutable rate : float;
}

let unit_wave ~samples =
  { wave = Array.make samples 0.0; filled = false; freq = 0.0; phase = 0.0; rate = 0.0 }

(* The key is compared bit for bit, so a hit is exactly the unit waveform
   a fresh synthesis would compute. *)
let[@inline] same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let synthesize_single_into memo ~sample_rate { freq; amplitude; phase } out =
  let wave = memo.wave in
  let n = Array.length wave in
  if Array.length out <> n then invalid_arg "Tone.synthesize_single_into: length mismatch";
  if not (memo.filled && same memo.freq freq && same memo.phase phase && same memo.rate sample_rate)
  then begin
    for t = 0 to n - 1 do
      Array.unsafe_set wave t (unit_point ~freq ~phase ~time:(float_of_int t /. sample_rate))
    done;
    memo.freq <- freq;
    memo.phase <- phase;
    memo.rate <- sample_rate;
    memo.filled <- true
  end;
  (* [point]'s one-component sum, accumulator start included: a negative
     amplitude times [sin 0.0] is [-0.0], which [0.0 +.] turns into
     [+0.0]. *)
  for t = 0 to n - 1 do
    Array.unsafe_set out t (0.0 +. (amplitude *. Array.unsafe_get wave t))
  done

let synthesize ~sample_rate ~samples components =
  let out = Array.make samples 0.0 in
  synthesize_into ~sample_rate components out;
  out

let fit signal ~sample_rate ~freq =
  let n = Array.length signal in
  assert (n > 0);
  let in_phase = ref 0.0 and quadrature = ref 0.0 in
  Array.iteri
    (fun t x ->
      let angle = two_pi *. freq *. float_of_int t /. sample_rate in
      in_phase := !in_phase +. (x *. sin angle);
      quadrature := !quadrature +. (x *. cos angle))
    signal;
  let scale = 2.0 /. float_of_int n in
  let s = scale *. !in_phase and c = scale *. !quadrature in
  (* x(t) ~ a sin(wt + p) = a sin wt cos p + a cos wt sin p *)
  { freq; amplitude = Float.hypot s c; phase = Float.atan2 c s }
