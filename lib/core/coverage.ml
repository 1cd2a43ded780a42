module Distribution = Msoc_stat.Distribution
module Quadrature = Msoc_stat.Quadrature

type losses = { fcl : float; yl : float }

type error_model =
  | Uniform_err of float
  | Normal_err of float

(* P(x + e satisfies the shifted bound), as a function of the true x. *)
let accept_probability ~bound ~error ~threshold_shift x =
  let prob_ge threshold =
    (* P(x + e >= threshold) *)
    match error with
    | Uniform_err err ->
      if err <= 0.0 then (if x >= threshold then 1.0 else 0.0)
      else Msoc_util.Floatx.clamp ~lo:0.0 ~hi:1.0 ((x +. err -. threshold) /. (2.0 *. err))
    | Normal_err err ->
      if err <= 0.0 then (if x >= threshold then 1.0 else 0.0)
      else begin
        let sigma = err /. 3.0 in
        1.0 -. Distribution.cdf (Distribution.normal ~mean:0.0 ~sigma) (threshold -. x)
      end
  in
  let prob_le threshold = 1.0 -. prob_ge threshold in
  match bound with
  | Spec.At_least m -> prob_ge (m +. threshold_shift)
  | Spec.At_most m -> prob_le (m -. threshold_shift)
  | Spec.Within { lo; hi } ->
    let lo' = lo +. threshold_shift and hi' = hi -. threshold_shift in
    if lo' >= hi' then 0.0 else Float.max 0.0 (prob_le hi' -. prob_le lo')

let truly_good ~bound x = Spec.passes bound x

let analytic ~population ~bound ~error ~threshold_shift =
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
    List.sort_uniq compare (lo :: hi :: List.filter (fun b -> b > lo && b < hi) boundaries)
  in
  let integrate f =
    let rec over acc = function
      | a :: (b :: _ as rest) ->
        over (acc +. Quadrature.simpson ~f ~lo:a ~hi:b ~n:800) rest
      | [ _ ] | [] -> acc
    in
    over 0.0 cuts
  in
  let pdf = Distribution.pdf population in
  let accept = accept_probability ~bound ~error ~threshold_shift in
  let p_good = integrate (fun x -> if truly_good ~bound x then pdf x else 0.0) in
  let p_faulty = 1.0 -. p_good in
  let escape =
    integrate (fun x -> if truly_good ~bound x then 0.0 else pdf x *. accept x)
  in
  let rejected_good =
    integrate (fun x -> if truly_good ~bound x then pdf x *. (1.0 -. accept x) else 0.0)
  in
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
    let is_good = truly_good ~bound x in
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
