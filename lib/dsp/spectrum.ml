type t = {
  bins : float array;
  sample_rate : float;
  window : Window.kind;
  length : int;
}

module Obs = Msoc_obs.Obs

(* Per-domain scratch for the windowed signal (role 0) and the split
   transform output (roles 1 and 2): a spectrum per fault stream, per
   Monte-Carlo sample, per repeated capture used to allocate (and
   immediately discard) all three — only the one-sided power array of
   [analyze] survives the call, and [departs] keeps nothing. *)
let scratch = Array.init 3 (fun _ -> Msoc_util.Pool.per_domain (fun n -> Array.make n 0.0))

(* The two per-bin expressions every reading goes through, defined once
   for [analyze] and [departs]: the one-sided power of bin [k] of an
   [n]-point transform (DC and Nyquist count once, the rest twice), and
   its dB map with a -400 dB floor for empty bins. *)
let[@inline] bin_power ~n ~norm k re im =
  let mag2 = (re *. re) +. (im *. im) in
  let sc = if k = 0 || (n mod 2 = 0 && k = n / 2) then 1.0 else 2.0 in
  (sc *. mag2) *. norm

let[@inline] db_of_power p = if p <= 1e-40 then -400.0 else 10.0 *. Float.log10 p

(* One-sided mean-square power, normalised by the window's equivalent
   noise bandwidth so that (a) summing a tone's main lobe yields its true
   mean-square power a^2/2 and (b) summing noise bins yields the true
   noise variance.  Both identities are exact for cosine-sum windows. *)
let power_norm window n =
  let gain = Window.coherent_gain window *. float_of_int n in
  let enbw = Window.noise_bandwidth_bins window in
  1.0 /. (gain *. gain *. enbw)

let analyze ?(window = Window.Hann) ~sample_rate signal =
  let n = Array.length signal in
  assert (n >= 8);
  Obs.count "spectrum.captures";
  Obs.span "spectrum.analyze" @@ fun () ->
  let windowed = scratch.(0) n in
  Window.apply_into window signal windowed;
  let bin_count = (n / 2) + 1 in
  let f_re = scratch.(1) bin_count and f_im = scratch.(2) bin_count in
  Fft.rfft_into windowed ~re:f_re ~im:f_im;
  let norm = power_norm window n in
  let bins =
    Array.init bin_count (fun k ->
        bin_power ~n ~norm k (Array.unsafe_get f_re k) (Array.unsafe_get f_im k))
  in
  { bins; sample_rate; window; length = n }

(* Multi-capture runs (one spectrum per fault stream, per Monte-Carlo part,
   per repeated measurement) analyse each capture independently: distribute
   them across domains.  The FFT plan cache is mutex-protected, so the
   first concurrent accesses of a new length serialise on the plan build
   and every later capture shares the published plan read-only. *)
let analyze_many ?(pool = Msoc_util.Pool.serial) ?(window = Window.Hann) ~sample_rate signals =
  Obs.span "spectrum.analyze_many"
    ~args:[ ("captures", string_of_int (Array.length signals)) ]
  @@ fun () ->
  Msoc_util.Pool.parallel_map pool (fun signal -> analyze ~window ~sample_rate signal) signals

let bin_count t = Array.length t.bins
let frequency_of_bin t k = float_of_int k *. t.sample_rate /. float_of_int t.length

let bin_of_frequency t freq =
  assert (freq >= 0.0 && freq <= t.sample_rate /. 2.0);
  let k = int_of_float (Float.round (freq *. float_of_int t.length /. t.sample_rate)) in
  min k (bin_count t - 1)

let power_db t k = db_of_power t.bins.(k)

let tone_power ?(avoid = fun _ -> false) t ~freq =
  let center = bin_of_frequency t freq in
  (* Walk to the local peak first: the nominal frequency may sit between
     bins or be slightly shifted by analog frequency error.  [avoid] bounds
     the walk: the climb never steps onto an avoided bin, so integrating a
     spur that sits on a stronger tone's leakage skirt cannot slide into
     that tone's main lobe. *)
  let nbins = bin_count t in
  let rec climb k =
    let better j = j >= 0 && j < nbins && (not (avoid j)) && t.bins.(j) > t.bins.(k) in
    if better (k + 1) then climb (k + 1) else if better (k - 1) then climb (k - 1) else k
  in
  let peak = climb center in
  let hw = Window.lobe_half_width t.window in
  let lo = max 0 (peak - hw) and hi = min (nbins - 1) (peak + hw) in
  let acc = ref 0.0 in
  for k = lo to hi do
    if not (avoid k) then acc := !acc +. t.bins.(k)
  done;
  !acc

let total_power t ~exclude_dc =
  let start = if exclude_dc then 1 else 0 in
  let acc = ref 0.0 in
  for k = start to bin_count t - 1 do
    acc := !acc +. t.bins.(k)
  done;
  !acc

let peak_bin t =
  let best = ref 1 in
  for k = 1 to bin_count t - 1 do
    if t.bins.(k) > t.bins.(!best) then best := k
  done;
  !best

let noise_floor_db t ~exclude =
  let kept = ref [] in
  for k = 1 to bin_count t - 1 do
    if not (exclude k) then kept := t.bins.(k) :: !kept
  done;
  let values = Array.of_list !kept in
  if Array.length values = 0 then -400.0
  else begin
    Array.sort compare values;
    db_of_power values.(Array.length values / 2)
  end

(* ------------------------------------------------------------------ *)
(* The prepared comparison.  Everything that depends only on the       *)
(* golden capture is computed once: its per-bin dB already clamped at  *)
(* the floor, the floor, the excluded bins and the window table.  One  *)
(* judgement is then a fused scale-and-window pass into per-domain     *)
(* scratch, one real FFT, and a scan that computes each bin's dB where *)
(* it compares and stops at the first bin out of tolerance: no         *)
(* spectrum, no boxed float, no allocation.                            *)
(* ------------------------------------------------------------------ *)

type mask = {
  samples : int;
  window_table : float array;
  norm : float;
  golden_db : float array;   (* max (golden dB) floor, per bin *)
  floor_db : float array;
  excluded : bool array;
  tolerance_db : float;
}

let mask golden ~floor_db ~excluded ~tolerance_db =
  let nbins = bin_count golden in
  if Array.length floor_db <> nbins || Array.length excluded <> nbins then
    invalid_arg "Spectrum.mask: floor_db and excluded need one cell per bin";
  { samples = golden.length;
    window_table = Window.coefficients golden.window golden.length;
    norm = power_norm golden.window golden.length;
    golden_db = Array.init nbins (fun k -> Float.max (power_db golden k) floor_db.(k));
    floor_db = Array.copy floor_db;
    excluded = Array.copy excluded;
    tolerance_db }

let departs m ~scale stream =
  let n = m.samples in
  if Array.length stream <> n then invalid_arg "Spectrum.departs: stream length";
  let x = scratch.(0) n in
  let w = m.window_table in
  for i = 0 to n - 1 do
    Array.unsafe_set x i
      ((float_of_int (Array.unsafe_get stream i) *. scale) *. Array.unsafe_get w i)
  done;
  let nbins = Array.length m.golden_db in
  let f_re = scratch.(1) nbins and f_im = scratch.(2) nbins in
  Fft.rfft_into x ~re:f_re ~im:f_im;
  let norm = m.norm and golden_db = m.golden_db and floor_db = m.floor_db in
  let excluded = m.excluded and tolerance_db = m.tolerance_db in
  let k = ref 1 and out = ref false in
  while (not !out) && !k < nbins do
    let i = !k in
    if not (Array.unsafe_get excluded i) then begin
      let p = bin_power ~n ~norm i (Array.unsafe_get f_re i) (Array.unsafe_get f_im i) in
      let b = Float.max (db_of_power p) (Array.unsafe_get floor_db i) in
      if Float.abs (Array.unsafe_get golden_db i -. b) > tolerance_db then out := true
    end;
    k := i + 1
  done;
  !out
