module Prng = Msoc_util.Prng
module Units = Msoc_util.Units

type t =
  | Normal of { mean : float; sigma : float }
  | Uniform of { lo : float; hi : float }

let normal ~mean ~sigma =
  assert (sigma > 0.0);
  Normal { mean; sigma }

let uniform ~lo ~hi =
  assert (lo < hi);
  Uniform { lo; hi }

let pdf t x =
  match t with
  | Normal { mean; sigma } ->
    let z = (x -. mean) /. sigma in
    exp (-0.5 *. z *. z) /. (sigma *. sqrt Units.two_pi)
  | Uniform { lo; hi } -> if x >= lo && x <= hi then 1.0 /. (hi -. lo) else 0.0

let cdf t x =
  match t with
  | Normal { mean; sigma } -> 0.5 *. Special.erfc ((mean -. x) /. (sigma *. sqrt 2.0))
  | Uniform { lo; hi } ->
    if x <= lo then 0.0 else if x >= hi then 1.0 else (x -. lo) /. (hi -. lo)

let sample t g =
  match t with
  | Normal { mean; sigma } -> Prng.gaussian_scaled g ~mean ~sigma
  | Uniform { lo; hi } -> Prng.uniform g ~lo ~hi

let mean = function Normal { mean; _ } -> mean | Uniform { lo; hi } -> 0.5 *. (lo +. hi)

let stddev = function
  | Normal { sigma; _ } -> sigma
  | Uniform { lo; hi } -> (hi -. lo) /. sqrt 12.0

let pp ppf = function
  | Normal { mean; sigma } -> Format.fprintf ppf "Normal(mean=%g, sigma=%g)" mean sigma
  | Uniform { lo; hi } -> Format.fprintf ppf "Uniform[%g, %g]" lo hi
