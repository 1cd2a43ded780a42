let two_pi = Msoc_util.Units.two_pi

type kind = Rectangular | Hann | Hamming | Blackman | Blackman_harris

let name = function
  | Rectangular -> "rectangular"
  | Hann -> "hann"
  | Hamming -> "hamming"
  | Blackman -> "blackman"
  | Blackman_harris -> "blackman-harris"

(* Cosine-sum coefficients (periodic form, suitable for spectral analysis). *)
let cosine_terms = function
  | Rectangular -> [| 1.0 |]
  | Hann -> [| 0.5; -0.5 |]
  | Hamming -> [| 0.54; -0.46 |]
  | Blackman -> [| 0.42; -0.5; 0.08 |]
  | Blackman_harris -> [| 0.35875; -0.48829; 0.14128; -0.01168 |]

let compute_coefficients kind n =
  assert (n >= 1);
  let terms = cosine_terms kind in
  Array.init n (fun i ->
      let phase = two_pi *. float_of_int i /. float_of_int n in
      let acc = ref 0.0 in
      Array.iteri (fun k a -> acc := !acc +. (a *. cos (float_of_int k *. phase))) terms;
      !acc)

(* Coefficient cache.  Every capture of the same (window, length) reuses
   the same table — the virtual tester windows thousands of same-size
   captures, and the n cosine evaluations per capture used to dominate
   [Spectrum.analyze].  Cached tables are treated as immutable; the public
   [coefficients] returns a defensive copy, the in-place [apply_into]
   path reads the shared table directly. *)
let coeff_mutex = Mutex.create ()
let coeff_cache : (int * int, float array) Hashtbl.t = Hashtbl.create 8

let kind_tag = function
  | Rectangular -> 0
  | Hann -> 1
  | Hamming -> 2
  | Blackman -> 3
  | Blackman_harris -> 4

let cached_coefficients kind n =
  let key = (kind_tag kind, n) in
  Mutex.lock coeff_mutex;
  let existing = Hashtbl.find_opt coeff_cache key in
  Mutex.unlock coeff_mutex;
  match existing with
  | Some w -> w
  | None ->
    (* built outside the lock; racing domains build identical tables and
       the first to publish wins *)
    let w = compute_coefficients kind n in
    Mutex.lock coeff_mutex;
    let w =
      match Hashtbl.find_opt coeff_cache key with
      | Some winner -> winner
      | None ->
        Hashtbl.add coeff_cache key w;
        w
    in
    Mutex.unlock coeff_mutex;
    w

let coefficients kind n = Array.copy (cached_coefficients kind n)

let coherent_gain kind = (cosine_terms kind).(0)

let noise_bandwidth_bins kind =
  (* ENBW = N * sum w^2 / (sum w)^2; for cosine-sum windows this converges to
     sum a_k^2/2 (a_0^2 counted fully) over a_0^2. *)
  let terms = cosine_terms kind in
  let sum_sq =
    Array.fold_left (fun acc a -> acc +. (a *. a /. 2.0)) (terms.(0) *. terms.(0) /. 2.0) terms
  in
  sum_sq /. (terms.(0) *. terms.(0))

let lobe_half_width = function
  | Rectangular -> 1
  | Hann | Hamming -> 2
  | Blackman -> 3
  | Blackman_harris -> 4

let apply_into kind signal out =
  let n = Array.length signal in
  assert (Array.length out >= n);
  let w = cached_coefficients kind n in
  for i = 0 to n - 1 do
    Array.unsafe_set out i (Array.unsafe_get signal i *. Array.unsafe_get w i)
  done
