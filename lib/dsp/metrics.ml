type report = {
  fundamental_freq : float;
  fundamental_power_db : float;
  snr_db : float;
  thd_db : float;
  sfdr_db : float;
  sinad_db : float;
  enob_bits : float;
}

let db = Spectrum.db_of_power

(* Fold a frequency into the first Nyquist zone [0, fs/2]. *)
let alias_fold ~sample_rate freq =
  let fs = sample_rate in
  let f = Float.rem (Float.abs freq) fs in
  if f <= fs /. 2.0 then f else fs -. f

let bins_around t center hw =
  let n = Spectrum.bin_count t in
  let lo = max 1 (center - hw) and hi = min (n - 1) (center + hw) in
  List.init (hi - lo + 1) (fun i -> lo + i)

let intermod3_products ~f1 ~f2 = (Float.abs ((2.0 *. f1) -. f2), Float.abs ((2.0 *. f2) -. f1))

(* Harmonics of a tone counted as distortion, and kept out of the noise. *)
let harmonics = 5

(* Exclusion masks as flat bool arrays indexed by bin: the noise sum below
   runs over every bin, and a hash probe per bin costs more than the add it
   guards.  [bins_around] already clamps to [1, bin_count). *)
let snr_multi_db t ~signals ?(exclude = []) () =
  let hw = Window.lobe_half_width t.Spectrum.window in
  let nbins = Spectrum.bin_count t in
  let excluded = Array.make nbins false in
  let exclude_tone freq =
    let center = Spectrum.bin_of_frequency t freq in
    List.iter (fun k -> excluded.(k) <- true) (bins_around t center hw)
  in
  let fs = t.Spectrum.sample_rate in
  List.iter
    (fun freq ->
      for h = 1 to harmonics do
        exclude_tone (alias_fold ~sample_rate:fs (float_of_int h *. freq))
      done)
    signals;
  List.iter (fun freq -> exclude_tone (alias_fold ~sample_rate:fs freq)) exclude;
  let signal =
    List.fold_left (fun acc freq -> acc +. Spectrum.tone_power t ~freq) 0.0 signals
  in
  let noise = ref 0.0 in
  for k = 1 to nbins - 1 do
    if not (Array.unsafe_get excluded k) then noise := !noise +. t.Spectrum.bins.(k)
  done;
  if !noise <= 1e-40 then 400.0 else db signal -. db !noise

let analyze t =
  let peak = Spectrum.peak_bin t in
  let fundamental_freq = Spectrum.frequency_of_bin t peak in
  let signal = Spectrum.tone_power t ~freq:fundamental_freq in
  let fundamental_power_db = db signal in
  (* Harmonic distortion power. *)
  let harm_total = ref 0.0 and worst_spur = ref 0.0 in
  for h = 2 to harmonics do
    let freq =
      alias_fold ~sample_rate:t.Spectrum.sample_rate (float_of_int h *. fundamental_freq)
    in
    let p = Spectrum.tone_power t ~freq in
    harm_total := !harm_total +. p
  done;
  (* Worst spur anywhere outside the fundamental's (widened) lobe; its
     power is lobe-integrated so SFDR compares tone against tone.  The
     re-integration excludes the fundamental's bins from both the local
     peak climb and the sum: when the worst bin sits on the fundamental's
     leakage skirt, an unbounded climb would walk back into the main lobe
     and report the fundamental itself as the "spur" (near-0 dB SFDR for a
     clean tone). *)
  let hw = Window.lobe_half_width t.Spectrum.window in
  let fundamental_bins = bins_around t peak (2 * hw) in
  let in_fundamental k = List.mem k fundamental_bins || k = 0 in
  let worst_bin = ref (-1) in
  for k = 1 to Spectrum.bin_count t - 1 do
    if (not (in_fundamental k)) && t.Spectrum.bins.(k) > !worst_spur then begin
      worst_spur := t.Spectrum.bins.(k);
      worst_bin := k
    end
  done;
  if !worst_bin >= 0 then
    worst_spur :=
      Spectrum.tone_power t ~avoid:in_fundamental
        ~freq:(Spectrum.frequency_of_bin t !worst_bin);
  let snr = snr_multi_db t ~signals:[ fundamental_freq ] () in
  let noise_plus_dist = Spectrum.total_power t ~exclude_dc:true -. signal in
  let sinad = if noise_plus_dist <= 1e-40 then 400.0 else db signal -. db noise_plus_dist in
  { fundamental_freq;
    fundamental_power_db;
    snr_db = snr;
    thd_db = db !harm_total -. db signal;
    sfdr_db = db signal -. db !worst_spur;
    sinad_db = sinad;
    enob_bits = (sinad -. 1.76) /. 6.02 }
