module Prng = Msoc_util.Prng
module Units = Msoc_util.Units

type t = Normal of { mean : float; sigma : float }

let normal ~mean ~sigma =
  assert (sigma > 0.0);
  Normal { mean; sigma }

let pdf (Normal { mean; sigma }) x =
  let z = (x -. mean) /. sigma in
  exp (-0.5 *. z *. z) /. (sigma *. sqrt Units.two_pi)

let cdf (Normal { mean; sigma }) x = 0.5 *. Special.erfc ((mean -. x) /. (sigma *. sqrt 2.0))
let sample (Normal { mean; sigma }) g = Prng.gaussian_scaled g ~mean ~sigma
let mean (Normal { mean; _ }) = mean
let stddev (Normal { sigma; _ }) = sigma

let pp ppf (Normal { mean; sigma }) =
  Format.fprintf ppf "Normal(mean=%g, sigma=%g)" mean sigma
