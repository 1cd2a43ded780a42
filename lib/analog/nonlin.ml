type t = {
  a1 : float;
  a3 : float;
  a5 : float;
  sat_in : float;   (* monotonicity limit *)
  sat_out : float;  (* |y| at the limit *)
}

let[@inline] poly t x =
  let x2 = x *. x in
  x *. (t.a1 +. (x2 *. (t.a3 +. (x2 *. t.a5))))

(* Smallest positive root of dy/dx = a1 + 3 a3 x^2 + 5 a5 x^4 = 0 (quadratic
   in x^2); infinity when the polynomial is monotone. *)
let monotonicity_limit a1 a3 a5 =
  if a5 = 0.0 then begin
    if a3 >= 0.0 then infinity else sqrt (a1 /. (-3.0 *. a3))
  end
  else begin
    let a = 5.0 *. a5 and b = 3.0 *. a3 and c = a1 in
    let disc = (b *. b) -. (4.0 *. a *. c) in
    if disc < 0.0 then infinity
    else begin
      let r1 = ((-.b) +. sqrt disc) /. (2.0 *. a) in
      let r2 = ((-.b) -. sqrt disc) /. (2.0 *. a) in
      let candidates = List.filter (fun r -> r > 0.0) [ r1; r2 ] in
      match candidates with
      | [] -> infinity
      | _ -> sqrt (List.fold_left Float.min infinity candidates)
    end
  end

let fit ~gain_lin ~iip3_vpeak ?p1db_vpeak () =
  assert (gain_lin > 0.0 && iip3_vpeak > 0.0);
  let a1 = gain_lin in
  (* Two-tone IM3 equals the fundamental when each tone reaches A_IP3:
     (3/4) |a3| A^3 = a1 A  =>  a3 = -4 a1 / (3 A^2). *)
  let a3 = -4.0 /. 3.0 *. a1 /. (iip3_vpeak *. iip3_vpeak) in
  let a5 =
    match p1db_vpeak with
    | None -> 0.0
    | Some a ->
      assert (a > 0.0);
      (* First-harmonic gain a1 + 3/4 a3 A^2 + 5/8 a5 A^4 = a1 * 10^(-1/20). *)
      let target = a1 *. Float.pow 10.0 (-1.0 /. 20.0) in
      let a2 = a *. a in
      (target -. a1 -. (0.75 *. a3 *. a2)) /. (0.625 *. a2 *. a2)
  in
  let sat_in = monotonicity_limit a1 a3 a5 in
  let reference = { a1; a3; a5; sat_in; sat_out = infinity } in
  let sat_out = if sat_in = infinity then infinity else Float.abs (poly reference sat_in) in
  { a1; a3; a5; sat_in; sat_out }

let[@inline] apply t x =
  if Float.abs x >= t.sat_in then (if x >= 0.0 then t.sat_out else -.t.sat_out)
  else poly t x

(* [apply] is inlined here, so the block loop boxes nothing. *)
let apply_into t buf =
  for i = 0 to Array.length buf - 1 do
    Array.unsafe_set buf i (apply t (Array.unsafe_get buf i))
  done

let saturation_input t = t.sat_in
