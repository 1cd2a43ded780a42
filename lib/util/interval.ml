type t = { lo : float; hi : float }

let make ~lo ~hi =
  assert (lo <= hi);
  { lo; hi }

let point x = { lo = x; hi = x }

let of_err x ~err =
  let e = Float.abs err in
  { lo = x -. e; hi = x +. e }

let mid t = 0.5 *. (t.lo +. t.hi)
let err t = 0.5 *. (t.hi -. t.lo)
let add a b = { lo = a.lo +. b.lo; hi = a.hi +. b.hi }
let sub a b = { lo = a.lo -. b.hi; hi = a.hi -. b.lo }
let neg a = { lo = -.a.hi; hi = -.a.lo }

let mul a b =
  let p1 = a.lo *. b.lo and p2 = a.lo *. b.hi in
  let p3 = a.hi *. b.lo and p4 = a.hi *. b.hi in
  { lo = Float.min (Float.min p1 p2) (Float.min p3 p4);
    hi = Float.max (Float.max p1 p2) (Float.max p3 p4) }

let scale k a = if k >= 0.0 then { lo = k *. a.lo; hi = k *. a.hi } else { lo = k *. a.hi; hi = k *. a.lo }
let contains t x = t.lo <= x && x <= t.hi
let map_monotone f t = { lo = f t.lo; hi = f t.hi }
let pp ppf t = Format.fprintf ppf "[%g, %g]" t.lo t.hi
