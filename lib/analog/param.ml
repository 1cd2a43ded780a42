module I = Msoc_util.Interval
module Prng = Msoc_util.Prng

type t = { nominal : float; tol : float }

let make ~nominal ~tol =
  assert (tol >= 0.0);
  { nominal; tol }

let interval p = I.of_err p.nominal ~err:p.tol

let sample p g =
  if p.tol = 0.0 then p.nominal
  else begin
    let rec draw attempts =
      let v = Prng.gaussian_scaled g ~mean:p.nominal ~sigma:(p.tol /. 3.0) in
      if Float.abs (v -. p.nominal) <= p.tol || attempts > 20 then v else draw (attempts + 1)
    in
    draw 0
  end
