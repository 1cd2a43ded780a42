type t = {
  order : int;
  decimation : int;
  integrators : int array;
  combs : int array;
  mutable phase : int;
}

let create ~order ~decimation =
  if order < 1 then invalid_arg "Cic.create: order";
  if decimation < 2 then invalid_arg "Cic.create: decimation";
  let log2r = int_of_float (ceil (Float.log2 (float_of_int decimation))) in
  if order * log2r > 40 then invalid_arg "Cic.create: gain overflows the native word";
  { order;
    decimation;
    integrators = Array.make order 0;
    combs = Array.make order 0;
    phase = 0 }

let process t input =
  let n = Array.length input in
  let out = Array.make ((t.phase + n) / t.decimation) 0 in
  let k = ref 0 in
  for j = 0 to n - 1 do
    (* integrator cascade at the input rate; native ints wrap which is
       exactly the Hogenauer arithmetic *)
    let acc = ref input.(j) in
    for i = 0 to t.order - 1 do
      t.integrators.(i) <- t.integrators.(i) + !acc;
      acc := t.integrators.(i)
    done;
    t.phase <- t.phase + 1;
    if t.phase >= t.decimation then begin
      t.phase <- 0;
      (* comb cascade at the output rate *)
      let v = ref t.integrators.(t.order - 1) in
      for i = 0 to t.order - 1 do
        let delayed = t.combs.(i) in
        t.combs.(i) <- !v;
        v := !v - delayed
      done;
      out.(!k) <- !v;
      incr k
    end
  done;
  out

let magnitude_db t ~input_rate ~freq =
  let r = float_of_int t.decimation in
  let x = Float.pi *. freq /. input_rate in
  let mag =
    if Float.abs x < 1e-12 then 1.0
    else begin
      let numerator = sin (x *. r) and denominator = r *. sin x in
      if Float.abs denominator < 1e-30 then 0.0 else Float.abs (numerator /. denominator)
    end
  in
  if mag <= 1e-20 then -400.0
  else 20.0 *. float_of_int t.order *. Float.log10 mag /. 1.0
