module I = Msoc_util.Interval
module Prng = Msoc_util.Prng

type t = { nominal : float; tol : float }

let exact nominal = { nominal; tol = 0.0 }

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

let sample_defective p g ~severity =
  let base = sample p g in
  let magnitude = if p.tol > 0.0 then p.tol else Float.max (Float.abs p.nominal *. 0.01) 1e-9 in
  let side = if Prng.float g < 0.5 then -1.0 else 1.0 in
  base +. (side *. severity *. magnitude)
