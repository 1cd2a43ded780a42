(* Cody-style rational approximations for erfc.  Three regimes:
   |x| <= 0.5 uses the erf series ratio, 0.5 < |x| <= 4 and |x| > 4 use the
   scaled erfc ratios; symmetry extends to negative arguments. *)

let erf_small x =
  (* erf(x) = x * P(x^2)/Q(x^2) for |x| <= 0.5 *)
  let z = x *. x in
  let p =
    ((((-0.356098437018154e-1 *. z) +. 0.699638348861914e1) *. z +. 0.219792616182942e2) *. z
    +. 0.242667955230532e3)
  in
  let q = (((z +. 0.150827976304078e2) *. z +. 0.911649054045149e2) *. z +. 0.215058875869861e3) in
  x *. p /. q

let erfc_mid x =
  (* erfc(x) = exp(-x^2) * P(x)/Q(x) for 0.46875 <= x <= 4 *)
  let p =
    ((((((((-0.136864857382717e-6 *. x) +. 0.564195517478974) *. x +. 0.721175825088309e1) *. x
        +. 0.431622272220567e2)
       *. x
      +. 0.152989285046940e3)
      *. x
     +. 0.339320816734344e3)
     *. x
    +. 0.451918953711873e3)
    *. x
    +. 0.300459261020162e3)
  in
  let q =
    (((((((x +. 0.127827273196294e2) *. x +. 0.770001529352295e2) *. x +. 0.277585444743988e3) *. x
       +. 0.638980264465631e3)
      *. x
     +. 0.931354094850610e3)
     *. x
    +. 0.790950925327898e3)
    *. x
    +. 0.300459260956983e3)
  in
  exp (-.x *. x) *. p /. q

let erfc_large x =
  (* erfc(x) = exp(-x^2)/(x*sqrt(pi)) * (1 + R(1/x^2)) for x > 4 *)
  let z = 1.0 /. (x *. x) in
  let p =
    ((((0.223192459734185e-1 *. z +. 0.278661308609648) *. z +. 0.226956593539687) *. z
     +. 0.494730910623251e-1)
     *. z
    +. 0.299610707703542e-2)
  in
  let q =
    ((((z +. 0.198733201817135e1) *. z +. 0.105167510706793e1) *. z +. 0.191308926107830) *. z
    +. 0.106209230528468e-1)
  in
  let r = z *. p /. q in
  exp (-.x *. x) *. (0.564189583547756 -. r) /. x

let erfc x =
  let ax = Float.abs x in
  let tail =
    if ax <= 0.46875 then 1.0 -. erf_small ax
    else if ax <= 4.0 then erfc_mid ax
    else if ax < 26.6 then erfc_large ax
    else 0.0
  in
  if x >= 0.0 then tail else 2.0 -. tail
