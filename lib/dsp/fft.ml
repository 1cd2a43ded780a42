module Obs = Msoc_obs.Obs

let two_pi = Msoc_util.Units.two_pi

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let next_power_of_two n =
  assert (n > 0);
  let rec grow p = if p >= n then p else grow (p * 2) in
  grow 1

(* ------------------------------------------------------------------ *)
(* Plan cache.  Every transform of length N reuses the same bit-       *)
(* reversal permutation and twiddle tables, every Bluestein transform  *)
(* of length N reuses its chirp and the spectrum of its (fixed)        *)
(* convolution kernel, and every real-input transform of length N      *)
(* reuses its untangling twiddles.  Plans are immutable once built and *)
(* the table is mutex-protected, so cached transforms are safe to run  *)
(* from multiple domains concurrently.                                 *)
(* ------------------------------------------------------------------ *)

type pow2_plan = {
  perm : int array;
  (* Twiddles for all stages, forward sign, concatenated: stage [len]
     (len = 2, 4, ..., n) owns the len/2 entries starting at len/2 - 1,
     entry k holding exp(-2i pi k / len).  Total n - 1 entries. *)
  tw_re : float array;
  tw_im : float array;
}

type bluestein_plan = {
  n : int;
  m : int;                      (* power-of-two convolution length *)
  chirp_re : float array;       (* exp(-i pi k^2 / n), length n *)
  chirp_im : float array;
  fb_re : float array;          (* forward FFT of the chirp kernel, length m *)
  fb_im : float array;
}

(* Untangling twiddles of the packed real transform: exp(-2i pi k / n)
   for k = 0 .. n/2, keyed by the (even) real length n. *)
type rfft_plan = {
  ut_re : float array;
  ut_im : float array;
}

let plan_mutex = Mutex.create ()
let pow2_plans : (int, pow2_plan) Hashtbl.t = Hashtbl.create 8
let bluestein_plans : (int, bluestein_plan) Hashtbl.t = Hashtbl.create 8
let rfft_plans : (int, rfft_plan) Hashtbl.t = Hashtbl.create 8

let clear_plan_cache () =
  Mutex.lock plan_mutex;
  Hashtbl.reset pow2_plans;
  Hashtbl.reset bluestein_plans;
  Hashtbl.reset rfft_plans;
  Mutex.unlock plan_mutex

let build_pow2_plan n =
  let perm = Array.make n 0 in
  let bits =
    let rec count b m = if m >= n then b else count (b + 1) (m * 2) in
    count 0 1
  in
  for i = 0 to n - 1 do
    let j = ref 0 in
    for b = 0 to bits - 1 do
      if i land (1 lsl b) <> 0 then j := !j lor (1 lsl (bits - 1 - b))
    done;
    perm.(i) <- !j
  done;
  let tw_re = Array.make (max 1 (n - 1)) 1.0 in
  let tw_im = Array.make (max 1 (n - 1)) 0.0 in
  let len = ref 2 in
  while !len <= n do
    let half = !len / 2 in
    let base = half - 1 in
    for k = 0 to half - 1 do
      let angle = -.two_pi *. float_of_int k /. float_of_int !len in
      tw_re.(base + k) <- cos angle;
      tw_im.(base + k) <- sin angle
    done;
    len := !len * 2
  done;
  { perm; tw_re; tw_im }

(* The build runs OUTSIDE the critical section: building a Bluestein plan
   transforms its kernel, which re-enters the pow2 lookup — holding one
   non-reentrant mutex across the build would self-deadlock.  If two
   domains race on a cold key both build; the first to publish wins and
   the plans are identical anyway (pure functions of the key).  A hit
   allocates nothing: the key is the bare length, [build] is a closed
   function of it, and the table is read with [Hashtbl.find]. *)
let memo_plan table n ~hit ~miss build =
  Mutex.lock plan_mutex;
  match Hashtbl.find table n with
  | plan ->
    Mutex.unlock plan_mutex;
    Obs.count hit;
    plan
  | exception Not_found ->
    Mutex.unlock plan_mutex;
    Obs.count miss;
    let plan = Obs.span "fft.plan.build" (fun () -> build n) in
    Mutex.lock plan_mutex;
    let plan =
      match Hashtbl.find table n with
      | winner -> winner
      | exception Not_found ->
        Hashtbl.add table n plan;
        plan
    in
    Mutex.unlock plan_mutex;
    plan

let pow2_plan n =
  memo_plan pow2_plans n ~hit:"fft.plan.pow2.hit" ~miss:"fft.plan.pow2.miss" build_pow2_plan

(* ------------------------------------------------------------------ *)
(* Per-domain scratch.  The transforms below need short-lived work     *)
(* buffers (the packed half-length signal, the Bluestein convolution); *)
(* allocating them per call made the capture loop GC-bound, so each    *)
(* domain keeps one buffer per (role, exact length).  Buffers hold no  *)
(* state between calls — every user overwrites before reading — and    *)
(* roles keep the concurrent uses inside one transform distinct: one   *)
(* [Pool.per_domain] lookup per role, so a hit allocates nothing.      *)
(* ------------------------------------------------------------------ *)

let scratch = Array.init 4 (fun _ -> Msoc_util.Pool.per_domain (fun n -> Array.make n 0.0))

(* roles: 0/1 — packed/real input of [rfft]; 2/3 — Bluestein convolution *)
let role_pack_re = 0
and role_pack_im = 1
and role_conv_re = 2
and role_conv_im = 3

(* Iterative radix-2 decimation-in-time with table-driven twiddles: the
   bit-reversal permutation followed by log2(N) butterfly stages.  The
   inverse direction conjugates the (forward-sign) table entries.

   The butterflies of one stage touch disjoint index pairs, so a stage
   runs twiddle-outer: each twiddle is loaded (and conjugated — a
   multiply by +-1.0, which is exact) once per stage, then applied to
   every block.  No float expression changes association, so the order
   does not change a bit of the result.  Every index below is in range by
   construction ([perm] is a permutation of [0, n); [a < b < n]; the stage
   [len]'s twiddles sit at [len/2 - 1 .. len - 2] of the n - 1 entries),
   so the loops read and write unchecked. *)
let fft_in_place ~re ~im ~inverse =
  let n = Array.length re in
  assert (Array.length im = n && is_power_of_two n);
  if n > 1 then begin
    let plan = pow2_plan n in
    let perm = plan.perm and tw_re = plan.tw_re and tw_im = plan.tw_im in
    for i = 0 to n - 1 do
      let j = Array.unsafe_get perm i in
      if i < j then begin
        let tr = Array.unsafe_get re i in
        Array.unsafe_set re i (Array.unsafe_get re j);
        Array.unsafe_set re j tr;
        let ti = Array.unsafe_get im i in
        Array.unsafe_set im i (Array.unsafe_get im j);
        Array.unsafe_set im j ti
      end
    done;
    let sign = if inverse then -1.0 else 1.0 in
    let len = ref 2 in
    while !len <= n do
      let step = !len in
      let half = step / 2 in
      let base = half - 1 in
      for k = 0 to half - 1 do
        let wr = Array.unsafe_get tw_re (base + k)
        and wi = sign *. Array.unsafe_get tw_im (base + k) in
        let a = ref k in
        while !a < n do
          let a' = !a in
          let b = a' + half in
          let br = Array.unsafe_get re b and bi = Array.unsafe_get im b in
          let ar = Array.unsafe_get re a' and ai = Array.unsafe_get im a' in
          let tr = (wr *. br) -. (wi *. bi) in
          let ti = (wr *. bi) +. (wi *. br) in
          Array.unsafe_set re b (ar -. tr);
          Array.unsafe_set im b (ai -. ti);
          Array.unsafe_set re a' (ar +. tr);
          Array.unsafe_set im a' (ai +. ti);
          a := a' + step
        done
      done;
      len := step * 2
    done;
    if inverse then begin
      let scale = 1.0 /. float_of_int n in
      for i = 0 to n - 1 do
        Array.unsafe_set re i (Array.unsafe_get re i *. scale);
        Array.unsafe_set im i (Array.unsafe_get im i *. scale)
      done
    end
  end

let build_bluestein_plan n =
  let chirp_re = Array.make n 0.0 and chirp_im = Array.make n 0.0 in
  for k = 0 to n - 1 do
    (* k^2 mod 2n keeps the angle argument small for large k. *)
    let k2 = k * k mod (2 * n) in
    let angle = -.Float.pi *. float_of_int k2 /. float_of_int n in
    chirp_re.(k) <- cos angle;
    chirp_im.(k) <- sin angle
  done;
  let m = next_power_of_two ((2 * n) - 1) in
  let fb_re = Array.make m 0.0 and fb_im = Array.make m 0.0 in
  for k = 0 to n - 1 do
    (* conj(chirp), circularly mirrored: kernel of the linear convolution *)
    fb_re.(k) <- chirp_re.(k);
    fb_im.(k) <- -.chirp_im.(k);
    if k > 0 then begin
      fb_re.(m - k) <- chirp_re.(k);
      fb_im.(m - k) <- -.chirp_im.(k)
    end
  done;
  fft_in_place ~re:fb_re ~im:fb_im ~inverse:false;
  { n; m; chirp_re; chirp_im; fb_re; fb_im }

let bluestein_plan n =
  memo_plan bluestein_plans n ~hit:"fft.plan.bluestein.hit" ~miss:"fft.plan.bluestein.miss"
    build_bluestein_plan

(* Bluestein chirp-z, in place on split arrays: x_n * w_n convolved with
   the conj(w) chirp, where w_n = exp(-i pi n^2 / N).  The linear
   convolution is carried out with a power-of-two circular FFT of length
   >= 2N - 1 in per-domain scratch; the chirp and the kernel's spectrum
   come from the plan. *)
let bluestein_in_place ~re ~im =
  let n = Array.length re in
  assert (Array.length im = n);
  let plan = bluestein_plan n in
  let m = plan.m in
  let a_re = scratch.(role_conv_re) m and a_im = scratch.(role_conv_im) m in
  Array.fill a_re 0 m 0.0;
  Array.fill a_im 0 m 0.0;
  for k = 0 to n - 1 do
    let xr = re.(k) and xi = im.(k) in
    a_re.(k) <- (xr *. plan.chirp_re.(k)) -. (xi *. plan.chirp_im.(k));
    a_im.(k) <- (xr *. plan.chirp_im.(k)) +. (xi *. plan.chirp_re.(k))
  done;
  fft_in_place ~re:a_re ~im:a_im ~inverse:false;
  for k = 0 to m - 1 do
    let tr = (a_re.(k) *. plan.fb_re.(k)) -. (a_im.(k) *. plan.fb_im.(k)) in
    let ti = (a_re.(k) *. plan.fb_im.(k)) +. (a_im.(k) *. plan.fb_re.(k)) in
    a_re.(k) <- tr;
    a_im.(k) <- ti
  done;
  fft_in_place ~re:a_re ~im:a_im ~inverse:true;
  for k = 0 to n - 1 do
    re.(k) <- (a_re.(k) *. plan.chirp_re.(k)) -. (a_im.(k) *. plan.chirp_im.(k));
    im.(k) <- (a_re.(k) *. plan.chirp_im.(k)) +. (a_im.(k) *. plan.chirp_re.(k))
  done

(* Any-length forward transform in place on split arrays. *)
let transform_in_place ~re ~im =
  let n = Array.length re in
  if n > 1 then begin
    if is_power_of_two n then fft_in_place ~re ~im ~inverse:false
    else bluestein_in_place ~re ~im
  end

let dft x =
  let n = Array.length x in
  Array.init n (fun k ->
      let acc = ref Complex.zero in
      for j = 0 to n - 1 do
        let angle = -.two_pi *. float_of_int (k * j mod n) /. float_of_int n in
        let w = { Complex.re = cos angle; im = sin angle } in
        acc := Complex.add !acc (Complex.mul x.(j) w)
      done;
      !acc)

(* ------------------------------------------------------------------ *)
(* Real-input transform.  Every tester waveform is real, so the full   *)
(* complex transform wastes half its work on a zero imaginary part.    *)
(* For even N the classic pack-two-reals trick halves the transform:   *)
(* z_k = x_{2k} + i x_{2k+1} is transformed at length N/2, then the    *)
(* even/odd spectra are untangled with the plan's twiddles:            *)
(*   E_k = (Z_k + conj Z_{h-k}) / 2,  O_k = -i (Z_k - conj Z_{h-k})/2, *)
(*   X_k = E_k + exp(-2 pi i k / N) O_k,   k = 0..h,  Z_h := Z_0.      *)
(* Odd N falls back to a full-length transform on split arrays.        *)
(* ------------------------------------------------------------------ *)

let build_rfft_plan n =
  let h = n / 2 in
  let ut_re = Array.make (h + 1) 0.0 and ut_im = Array.make (h + 1) 0.0 in
  for k = 0 to h do
    let angle = -.two_pi *. float_of_int k /. float_of_int n in
    ut_re.(k) <- cos angle;
    ut_im.(k) <- sin angle
  done;
  { ut_re; ut_im }

let rfft_plan n =
  memo_plan rfft_plans n ~hit:"fft.plan.rfft.hit" ~miss:"fft.plan.rfft.miss" build_rfft_plan

(* Forward transform of a real signal into caller-provided split output:
   [re]/[im] receive the n/2 + 1 non-redundant bins (DC .. Nyquist). *)
let rfft_into signal ~re ~im =
  let n = Array.length signal in
  assert (n >= 2);
  let bins = (n / 2) + 1 in
  assert (Array.length re >= bins && Array.length im >= bins);
  Obs.count "fft.transforms";
  if n land 1 = 1 then begin
    (* odd length: full-size split transform of (signal, 0) *)
    let w_re = scratch.(role_pack_re) n and w_im = scratch.(role_pack_im) n in
    Array.blit signal 0 w_re 0 n;
    Array.fill w_im 0 n 0.0;
    transform_in_place ~re:w_re ~im:w_im;
    Array.blit w_re 0 re 0 bins;
    Array.blit w_im 0 im 0 bins
  end
  else begin
    let h = n / 2 in
    let z_re = scratch.(role_pack_re) h and z_im = scratch.(role_pack_im) h in
    (* unchecked below: n = 2h, the output holds h + 1 bins (asserted),
       and both Z_k (Z_h reads Z_0, by length-h periodicity) and its
       mirror Z_j, j = (h - k) mod h, index [0, h) *)
    for k = 0 to h - 1 do
      Array.unsafe_set z_re k (Array.unsafe_get signal (2 * k));
      Array.unsafe_set z_im k (Array.unsafe_get signal ((2 * k) + 1))
    done;
    transform_in_place ~re:z_re ~im:z_im;
    let plan = rfft_plan n in
    let ut_re = plan.ut_re and ut_im = plan.ut_im in
    for k = 0 to h do
      let kz = if k = h then 0 else k in
      let j = if k = 0 then 0 else h - k in
      let zk_re = Array.unsafe_get z_re kz and zk_im = Array.unsafe_get z_im kz in
      let zj_re = Array.unsafe_get z_re j and zj_im = -.Array.unsafe_get z_im j in
      let e_re = 0.5 *. (zk_re +. zj_re) and e_im = 0.5 *. (zk_im +. zj_im) in
      (* O_k = -i (Z_k - conj Z_{h-k}) / 2 *)
      let d_re = 0.5 *. (zk_re -. zj_re) and d_im = 0.5 *. (zk_im -. zj_im) in
      let o_re = d_im and o_im = -.d_re in
      let w_re = Array.unsafe_get ut_re k and w_im = Array.unsafe_get ut_im k in
      Array.unsafe_set re k (e_re +. ((w_re *. o_re) -. (w_im *. o_im)));
      Array.unsafe_set im k (e_im +. ((w_re *. o_im) +. (w_im *. o_re)))
    done
  end
