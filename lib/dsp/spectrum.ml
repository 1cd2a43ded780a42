type t = {
  bins : float array;
  sample_rate : float;
  window : Window.kind;
  length : int;
}

module Obs = Msoc_obs.Obs

(* Per-domain scratch for the windowed signal and the split transform
   output: a spectrum per fault stream, per Monte-Carlo sample, per
   repeated capture used to allocate (and immediately discard) all three —
   only the one-sided power array below survives the call. *)
let scratch_key : (int * int, float array) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let scratch ~role n =
  let tbl = Domain.DLS.get scratch_key in
  match Hashtbl.find_opt tbl (role, n) with
  | Some a -> a
  | None ->
    let a = Array.make n 0.0 in
    Hashtbl.add tbl (role, n) a;
    a

let analyze ?(window = Window.Hann) ~sample_rate signal =
  let n = Array.length signal in
  assert (n >= 8);
  Obs.count "spectrum.captures";
  Obs.span "spectrum.analyze" @@ fun () ->
  let windowed = scratch ~role:0 n in
  Window.apply_into window signal windowed;
  let bin_count = (n / 2) + 1 in
  let f_re = scratch ~role:1 bin_count and f_im = scratch ~role:2 bin_count in
  Fft.rfft_into windowed ~re:f_re ~im:f_im;
  let gain = Window.coherent_gain window *. float_of_int n in
  (* One-sided mean-square power, normalised by the window's equivalent
     noise bandwidth so that (a) summing a tone's main lobe yields its true
     mean-square power a^2/2 and (b) summing noise bins yields the true
     noise variance.  Both identities are exact for cosine-sum windows. *)
  let enbw = Window.noise_bandwidth_bins window in
  let norm = 1.0 /. (gain *. gain *. enbw) in
  let bins =
    Array.init bin_count (fun k ->
        let re = Array.unsafe_get f_re k and im = Array.unsafe_get f_im k in
        let mag2 = (re *. re) +. (im *. im) in
        let scale = if k = 0 || (n mod 2 = 0 && k = n / 2) then 1.0 else 2.0 in
        scale *. mag2 *. norm)
  in
  { bins; sample_rate; window; length = n }

(* Multi-capture runs (one spectrum per fault stream, per Monte-Carlo part,
   per repeated measurement) analyse each capture independently: distribute
   them across domains.  The FFT plan cache is mutex-protected, so the
   first concurrent accesses of a new length serialise on the plan build
   and every later capture shares the published plan read-only. *)
let analyze_many ?pool ?(window = Window.Hann) ~sample_rate signals =
  Obs.span "spectrum.analyze_many"
    ~args:[ ("captures", string_of_int (Array.length signals)) ]
  @@ fun () ->
  match pool with
  | Some pool when Msoc_util.Pool.size pool > 1 && Array.length signals > 1 ->
    Msoc_util.Pool.parallel_map pool (fun signal -> analyze ~window ~sample_rate signal) signals
  | Some _ | None -> Array.map (fun signal -> analyze ~window ~sample_rate signal) signals

let bin_count t = Array.length t.bins
let frequency_of_bin t k = float_of_int k *. t.sample_rate /. float_of_int t.length

let bin_of_frequency t freq =
  assert (freq >= 0.0 && freq <= t.sample_rate /. 2.0);
  let k = int_of_float (Float.round (freq *. float_of_int t.length /. t.sample_rate)) in
  min k (bin_count t - 1)

let power_db t k =
  let p = t.bins.(k) in
  if p <= 1e-40 then -400.0 else 10.0 *. Float.log10 p

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

let peak_bin t ?(from_bin = 1) () =
  let best = ref from_bin in
  for k = from_bin to bin_count t - 1 do
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
    let median = values.(Array.length values / 2) in
    if median <= 1e-40 then -400.0 else 10.0 *. Float.log10 median
  end
