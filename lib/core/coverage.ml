module Distribution = Msoc_stat.Distribution
module Obs = Msoc_obs.Obs

type losses = { fcl : float; yl : float }

type error_model =
  | Uniform_err of float
  | Normal_err of float

(* The integrands below are evaluated ~10^4 times per [analytic] call, so
   everything a node needs is written here rather than called across a
   module boundary (which would box each float argument and result), and
   marked [@inline] so the node loop allocates nothing. *)

(* [Spec.passes]: the true value satisfies the spec bound. *)
let[@inline] truly_good bound x =
  match bound with
  | Spec.At_least threshold -> x >= threshold
  | Spec.At_most threshold -> x <= threshold
  | Spec.Within { lo; hi } -> x >= lo && x <= hi

(* [Distribution.pdf], term for term. *)
let[@inline] density (Distribution.Normal { mean; sigma }) x =
  let z = (x -. mean) /. sigma in
  exp (-0.5 *. z *. z) /. (sigma *. sqrt Msoc_util.Units.two_pi)

(* P(x + e >= threshold), as a function of the true x. *)
let[@inline] prob_ge error ~threshold x =
  match error with
  | Uniform_err err ->
    if err <= 0.0 then (if x >= threshold then 1.0 else 0.0)
    else begin
      (* [Floatx.clamp ~lo:0.0 ~hi:1.0] *)
      let v = (x +. err -. threshold) /. (2.0 *. err) in
      if v < 0.0 then 0.0 else if v > 1.0 then 1.0 else v
    end
  | Normal_err err ->
    if err <= 0.0 then (if x >= threshold then 1.0 else 0.0)
    else begin
      let sigma = err /. 3.0 in
      1.0 -. Distribution.cdf (Distribution.normal ~mean:0.0 ~sigma) (threshold -. x)
    end

let[@inline] prob_le error ~threshold x = 1.0 -. prob_ge error ~threshold x

(* P(x + e satisfies the shifted bound), as a function of the true x. *)
let[@inline] accept_probability ~bound ~error ~threshold_shift x =
  match bound with
  | Spec.At_least m -> prob_ge error ~threshold:(m +. threshold_shift) x
  | Spec.At_most m -> prob_le error ~threshold:(m -. threshold_shift) x
  | Spec.Within { lo; hi } ->
    let lo' = lo +. threshold_shift and hi' = hi -. threshold_shift in
    if lo' >= hi' then 0.0
    else Float.max 0.0 (prob_le error ~threshold:hi' x -. prob_le error ~threshold:lo' x)

(* The three integrands at one node, from the indicator [good], the
   density [d] and the acceptance probability [p]. *)
let[@inline] good_mass good d = if good then d else 0.0
let[@inline] escape_mass good d p = if good then 0.0 else d *. p
let[@inline] rejected_mass good d p = if good then d *. (1.0 -. p) else 0.0

(* Simpson panels per segment (even). *)
let panels = 800

let analytic ~population ~bound ~error ~threshold_shift =
  Obs.span "coverage.analytic" @@ fun () ->
  let mean = Distribution.mean population and sigma = Distribution.stddev population in
  let lo = mean -. (10.0 *. sigma) and hi = mean +. (10.0 *. sigma) in
  (* Split the integration at the spec boundaries so the discontinuities of
     the good/faulty indicator do not degrade Simpson accuracy. *)
  let err_magnitude = match error with Uniform_err e | Normal_err e -> Float.abs e in
  let kinks m = [ m; m +. threshold_shift; m +. threshold_shift -. err_magnitude;
                  m +. threshold_shift +. err_magnitude; m -. threshold_shift;
                  m -. threshold_shift -. err_magnitude; m -. threshold_shift +. err_magnitude ]
  in
  let boundaries =
    match bound with
    | Spec.At_least m -> kinks m
    | Spec.At_most m -> kinks m
    | Spec.Within { lo = a; hi = b } -> kinks a @ kinks b
  in
  let cuts =
    Array.of_list
      (List.sort_uniq compare (lo :: hi :: List.filter (fun b -> b > lo && b < hi) boundaries))
  in
  (* One composite-Simpson pass per segment accumulates all three
     integrals.  Each sum sees exactly the operations, in exactly the
     order, of a separate composite-Simpson integral per integrand (the
     order the plans' golden losses were computed in): the endpoints
     [f a +. f b], then [w *. f x] for the interior nodes left to right,
     times [h], then over 3; the segments add left to right from 0. *)
  let p_good = ref 0.0 and escape = ref 0.0 and rejected_good = ref 0.0 in
  for s = 0 to Array.length cuts - 2 do
    let a = cuts.(s) and b = cuts.(s + 1) in
    let h = (b -. a) /. float_of_int panels in
    let ga = truly_good bound a and gb = truly_good bound b in
    let da = density population a and db = density population b in
    let pa = accept_probability ~bound ~error ~threshold_shift a in
    let pb = accept_probability ~bound ~error ~threshold_shift b in
    let good = ref (good_mass ga da +. good_mass gb db) in
    let esc = ref (escape_mass ga da pa +. escape_mass gb db pb) in
    let rej = ref (rejected_mass ga da pa +. rejected_mass gb db pb) in
    for i = 1 to panels - 1 do
      let x = a +. (float_of_int i *. h) in
      let w = if i mod 2 = 1 then 4.0 else 2.0 in
      let g = truly_good bound x and d = density population x in
      let p = accept_probability ~bound ~error ~threshold_shift x in
      good := !good +. (w *. good_mass g d);
      esc := !esc +. (w *. escape_mass g d p);
      rej := !rej +. (w *. rejected_mass g d p)
    done;
    p_good := !p_good +. (!good *. h /. 3.0);
    escape := !escape +. (!esc *. h /. 3.0);
    rejected_good := !rejected_good +. (!rej *. h /. 3.0)
  done;
  let p_good = !p_good and escape = !escape and rejected_good = !rejected_good in
  let p_faulty = 1.0 -. p_good in
  let clamp01 = Msoc_util.Floatx.clamp ~lo:0.0 ~hi:1.0 in
  { fcl = (if p_faulty <= 1e-12 then 0.0 else clamp01 (escape /. p_faulty));
    yl = (if p_good <= 1e-12 then 0.0 else clamp01 (rejected_good /. p_good)) }

let shifted_bound ~bound ~threshold_shift =
  match bound with
  | Spec.At_least m -> Spec.At_least (m +. threshold_shift)
  | Spec.At_most m -> Spec.At_most (m -. threshold_shift)
  | Spec.Within { lo; hi } -> Spec.Within { lo = lo +. threshold_shift; hi = hi -. threshold_shift }

let monte_carlo ~trials ~rng ~sample_true ~measure ~bound ~threshold_shift =
  assert (trials > 0);
  let accept_bound = shifted_bound ~bound ~threshold_shift in
  let faulty = ref 0 and good = ref 0 in
  let escapes = ref 0 and rejections = ref 0 in
  for _ = 1 to trials do
    let x = sample_true rng in
    let measured = measure rng x in
    let is_good = truly_good bound x in
    let accepted = Spec.passes accept_bound measured in
    if is_good then begin
      incr good;
      if not accepted then incr rejections
    end
    else begin
      incr faulty;
      if accepted then incr escapes
    end
  done;
  let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den in
  ({ fcl = ratio !escapes !faulty; yl = ratio !rejections !good }, !faulty, !good)

let threshold_rows ~population ~bound ~err ~error =
  [ ("Thr = Tol", analytic ~population ~bound ~error ~threshold_shift:0.0);
    ("Thr = Tol - Err", analytic ~population ~bound ~error ~threshold_shift:err);
    ("Thr = Tol + Err", analytic ~population ~bound ~error ~threshold_shift:(-.err)) ]

let fcl_yl_tradeoff ~population ~bound ~error ~shifts =
  Array.map (fun shift -> (shift, analytic ~population ~bound ~error ~threshold_shift:shift)) shifts

let defective_population ~nominal ~tol =
  Distribution.normal ~mean:nominal ~sigma:(Float.max tol 1e-12)
