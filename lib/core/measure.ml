module Path = Msoc_analog.Path
module Stage = Msoc_analog.Stage
module Context = Msoc_analog.Context
module Param = Msoc_analog.Param
module Lpf = Msoc_analog.Lpf
module Units = Msoc_util.Units
module Tone = Msoc_dsp.Tone
module Spectrum = Msoc_dsp.Spectrum
module Obs = Msoc_obs.Obs

(* ADC samples per capture *)
let capture_samples = 4096

type t = {
  path : Path.t;
  engine : Path.engine;  (* built once; every capture replays it *)
}

let create ?(seed = 1234) path part =
  { path;
    engine =
      Obs.span "measure.engine" (fun () ->
          Path.engine path part ~seed ~samples:(capture_samples * Path.decimation path)) }

let adc_rate t = Path.adc_rate_hz t.path

let lo_nominal t =
  match Path.lo_freq_hz t.path with
  | Some f -> f
  | None -> invalid_arg "Measure: path has no LO"

let mixer_stage t =
  match Path.first_mixer t.path with
  | Some s -> s
  | None -> invalid_arg "Measure: path has no mixer stage"

let lpf_stage path = Path.first_stage path (function Stage.Lpf _ -> true | _ -> false)

let snap_if t freq =
  let n = capture_samples and fs = adc_rate t in
  Tone.coherent_frequency ~sample_rate:fs ~samples:n ~target:freq

(* The stimulus buffer is per-domain scratch: a validation run performs
   dozens of captures of the same (large) simulation length, and the
   engine reads the samples without retaining the array, so each domain
   can synthesize every capture into the same buffer.  Beside it sits the
   last single-tone unit waveform: most captures repeat the 100 kHz test
   IF at another level (the P1dB sweep, the gain, LO and reference reads),
   and those cost one multiply-add pass instead of a [sin] per sample. *)
type scratch = { stimulus : float array; unit_wave : Tone.unit_wave }

let scratch =
  Msoc_util.Pool.per_domain (fun n ->
      { stimulus = Array.make n 0.0; unit_wave = Tone.unit_wave ~samples:n })

let raw_capture t components =
  Obs.span "measure.capture" @@ fun () ->
  let { stimulus; unit_wave } = scratch (capture_samples * Path.decimation t.path) in
  let sample_rate = t.path.Path.ctx.Context.sim_rate_hz in
  (match components with
  | [ tone ] -> Tone.synthesize_single_into unit_wave ~sample_rate tone stimulus
  | _ -> Tone.synthesize_into ~sample_rate components stimulus);
  Path.run_volts t.engine stimulus

let capture t ~tones =
  let components =
    List.map
      (fun (rf_freq, level_dbm) ->
        let if_freq = snap_if t (Float.abs (rf_freq -. lo_nominal t)) in
        Tone.component ~freq:(lo_nominal t +. if_freq)
          ~amplitude:(Units.vpeak_of_dbm level_dbm) ())
      tones
  in
  Spectrum.analyze ~sample_rate:(adc_rate t) (raw_capture t components)

let tone_power_dbm spectrum ~freq_hz =
  Units.dbm_of_vpeak (sqrt (2.0 *. Spectrum.tone_power spectrum ~freq:freq_hz))

(* The raw reading at the test IF includes the LPF's (design-known)
   roll-off there; correct it back to the pass-band value so the result is
   comparable with the sum of block pass-band gains.  Paths without an LPF
   stage need no correction. *)
let lpf_rolloff_correction_db t ~if_freq =
  match lpf_stage t.path with
  | None -> 0.0
  | Some s ->
    let params = match s.Stage.block with Stage.Lpf p -> p | _ -> assert false in
    let values = Lpf.nominal_values params in
    values.Lpf.gain_db -. Lpf.magnitude_db values t.path.Path.ctx ~freq:if_freq

(* Design-known droop of the digitizer's decimation filter at the test IF:
   zero for the Nyquist ADC, the sinc^3 response of the 3-stage CIC for the
   sigma-delta.  Returned as a (negative) response in dB. *)
let digitizer_droop_db t ~if_freq =
  match (Path.digitizer t.path).Stage.block with
  | Stage.Sd_adc { decimation; _ } ->
    let cic = Msoc_dsp.Cic.create ~order:3 ~decimation in
    Msoc_dsp.Cic.magnitude_db cic ~input_rate:t.path.Path.ctx.Context.sim_rate_hz
      ~freq:if_freq
  | _ -> 0.0

let path_gain_db t ~level_dbm =
  let if_freq = snap_if t 100e3 in
  let sp = capture t ~tones:[ (lo_nominal t +. if_freq, level_dbm) ] in
  tone_power_dbm sp ~freq_hz:if_freq -. level_dbm
  +. lpf_rolloff_correction_db t ~if_freq
  -. digitizer_droop_db t ~if_freq

(* Parabolic interpolation of the spectral peak around the strongest bin
   near the expected frequency; sub-bin frequency resolution. *)
let interpolated_peak_hz spectrum ~near_hz =
  let center = Spectrum.bin_of_frequency spectrum near_hz in
  let nbins = Spectrum.bin_count spectrum in
  (* climb to the local peak first *)
  let rec climb k =
    let better j = j >= 1 && j < nbins && spectrum.Spectrum.bins.(j) > spectrum.Spectrum.bins.(k) in
    if better (k + 1) then climb (k + 1) else if better (k - 1) then climb (k - 1) else k
  in
  let k = climb (max 1 (min (nbins - 2) center)) in
  if k <= 0 || k >= nbins - 1 then Spectrum.frequency_of_bin spectrum k
  else begin
    let db i = Spectrum.power_db spectrum i in
    let a = db (k - 1) and b = db k and c = db (k + 1) in
    let denominator = a -. (2.0 *. b) +. c in
    let delta = if Float.abs denominator < 1e-12 then 0.0 else 0.5 *. (a -. c) /. denominator in
    let delta = Msoc_util.Floatx.clamp ~lo:(-0.5) ~hi:0.5 delta in
    Spectrum.frequency_of_bin spectrum k
    +. (delta *. spectrum.Spectrum.sample_rate /. float_of_int spectrum.Spectrum.length)
  end

let if_frequency_hz t ~rf_freq_hz ~level_dbm =
  (* deliberately NOT snapped: the point is to measure the actual IF *)
  let components =
    [ Tone.component ~freq:rf_freq_hz ~amplitude:(Units.vpeak_of_dbm level_dbm) () ]
  in
  let sp = Spectrum.analyze ~sample_rate:(adc_rate t) (raw_capture t components) in
  interpolated_peak_hz sp ~near_hz:(Float.abs (rf_freq_hz -. lo_nominal t))

let lo_frequency_hz t ~level_dbm =
  let rf = lo_nominal t +. snap_if t 100e3 in
  rf -. if_frequency_hz t ~rf_freq_hz:rf ~level_dbm

(* Nominal sum of the gains in front of the mixer — the de-embedding term
   the measurements below refer their readings through. *)
let pre_mixer_gain_db t =
  Path.nominal_gain_db (Path.gains_before t.path ~stage:(mixer_stage t).Stage.id)

let mixer_iip3_dbm t ~strategy =
  let f1 = snap_if t 90e3 and f2 = snap_if t 110e3 in
  (* Per-tone level backed off from the mixer's nominal compression point
     referred to the primary input: high enough that the IM3 products
     clear the digitizer floor, low enough that the 5th-order term does
     not contaminate them and read the extrapolated intercept low.  A
     Nyquist ADC's flat quantization floor allows 22 dB of back-off (on
     the default receiver this is exactly the historical standard level
     minus 5 dB, -40 dBm); a sigma-delta's noise-shaped floor sits far
     higher at the IM3 frequencies and needs a hotter stimulus. *)
  let backoff_db =
    match (Path.digitizer t.path).Stage.block with
    | Stage.Sd_adc _ -> 12.0
    | _ -> 22.0
  in
  let level =
    (Path.param t.path ~stage:(mixer_stage t).Stage.id ~name:"p1db_dbm").Param.nominal
    -. pre_mixer_gain_db t -. backoff_db
  in
  let sp =
    capture t ~tones:[ (lo_nominal t +. f1, level); (lo_nominal t +. f2, level) ]
  in
  (* every reading corrected to the pass band at its own frequency *)
  let read freq =
    tone_power_dbm sp ~freq_hz:freq
    +. lpf_rolloff_correction_db t ~if_freq:freq
    -. digitizer_droop_db t ~if_freq:freq
  in
  let x = 0.5 *. (read f1 +. read f2) in
  let im3_lo = (2.0 *. f1) -. f2 and im3_hi = (2.0 *. f2) -. f1 in
  let y = 0.5 *. (read im3_lo +. read im3_hi) in
  let observable = ((3.0 *. x) -. y) /. 2.0 in
  match strategy with
  | Propagate.Nominal_gains ->
    (* de-embed through the nominal gains of the mixer and what follows *)
    List.fold_left
      (fun acc (_, (p : Param.t)) -> acc -. p.Param.nominal)
      observable
      (Path.gains_from t.path ~stage:(mixer_stage t).Stage.id)
  | Propagate.Adaptive ->
    let g_path = path_gain_db t ~level_dbm:level in
    observable -. g_path +. pre_mixer_gain_db t

let gain_at_level t ~if_freq ~level_dbm =
  let sp = capture t ~tones:[ (lo_nominal t +. if_freq, level_dbm) ] in
  tone_power_dbm sp ~freq_hz:if_freq -. level_dbm -. digitizer_droop_db t ~if_freq

let mixer_p1db_dbm t ~strategy =
  let if_freq = snap_if t 100e3 in
  let amp_gain = pre_mixer_gain_db t in
  (* Compression is judged against the small-signal gain at the same test
     frequency, so no roll-off correction may be applied to either side. *)
  let reference =
    match strategy with
    | Propagate.Nominal_gains ->
      Path.nominal_path_gain_db t.path -. lpf_rolloff_correction_db t ~if_freq
    | Propagate.Adaptive ->
      gain_at_level t ~if_freq ~level_dbm:Propagate.standard_test_level_dbm
  in
  (* coarse upward sweep in 1 dB steps, then linear interpolation on the
     last straddling pair.  The sweep starts well below the expected point:
     the nominal-gain variant conflates a gain deficit with compression
     (its documented weakness), and a low start at least grades it. *)
  let start =
    (Path.param t.path ~stage:(mixer_stage t).Stage.id ~name:"p1db_dbm").Param.nominal
    -. amp_gain -. 12.0
  in
  let drop level = reference -. gain_at_level t ~if_freq ~level_dbm:level -. 1.0 in
  let rec sweep level previous =
    if level > start +. 20.0 then level
    else begin
      let d = drop level in
      if d >= 0.0 then begin
        match previous with
        | Some (level0, d0) when d > d0 ->
          (* linear interpolation of the zero crossing *)
          level0 +. ((level -. level0) *. (-.d0) /. (d -. d0))
        | Some _ | None -> level
      end
      else sweep (level +. 1.0) (Some (level, d))
    end
  in
  sweep start None +. amp_gain

let lpf_cutoff_hz t ~strategy =
  let level = Propagate.standard_test_level_dbm in
  (* pass-band reference at 100 kHz *)
  let reference =
    match strategy with
    | Propagate.Nominal_gains -> Path.nominal_path_gain_db t.path
    | Propagate.Adaptive -> path_gain_db t ~level_dbm:level
  in
  (* The LPF is two cascaded 2nd-order sections, so the per-section corner
     (the spec'd parameter) is the cascade's -6.02 dB point. *)
  let target = reference -. 6.02 in
  let measured_gain if_target =
    match strategy with
    | Propagate.Nominal_gains ->
      (* assume the IF is where the nominal LO puts it *)
      gain_at_level t ~if_freq:(snap_if t if_target) ~level_dbm:level
    | Propagate.Adaptive ->
      (* measure the actual IF frequency along with the gain *)
      let rf = lo_nominal t +. if_target in
      let sp =
        Spectrum.analyze ~sample_rate:(adc_rate t)
          (raw_capture t [ Tone.component ~freq:rf ~amplitude:(Units.vpeak_of_dbm level) () ])
      in
      let actual = interpolated_peak_hz sp ~near_hz:if_target in
      tone_power_dbm sp ~freq_hz:actual -. level -. digitizer_droop_db t ~if_freq:actual
  in
  let rec coarse f =
    if f > 320e3 then (f -. 15e3, f)
    else if measured_gain f <= target then (f -. 15e3, f)
    else coarse (f +. 15e3)
  in
  let rec bisect lo hi iterations =
    if iterations = 0 then 0.5 *. (lo +. hi)
    else begin
      let mid = 0.5 *. (lo +. hi) in
      if measured_gain mid <= target then bisect lo mid (iterations - 1)
      else bisect mid hi (iterations - 1)
    end
  in
  let lo, hi = coarse 155e3 in
  let crossing_if = bisect lo hi 7 in
  (* the crossing is located in IF terms; translate by the LO estimate *)
  match strategy with
  | Propagate.Nominal_gains -> crossing_if
  | Propagate.Adaptive ->
    let lo_error = lo_frequency_hz t ~level_dbm:level -. lo_nominal t in
    crossing_if +. lo_error

type validation = {
  parameter : string;
  true_value : float;
  measured : float;
  error : float;
  budget : float;
  cost : Cost.t;
}

let validate_part ?(pool = Msoc_util.Pool.serial) ?seed path part ~strategy =
  let t = create ?seed path part in
  (* Static application cost per procedure: capture count from the
     measurement class (sweeps pay per point), record length and settling
     from this tester session's path. *)
  let cost_of ~captures =
    Cost.create ~captures ~record_samples:capture_samples
      ~settle_cycles:(Path.settle_cycles path) ~sample_rate_hz:(Path.adc_rate_hz path)
  in
  let entry parameter ~captures ~true_value ~measured ~budget =
    { parameter;
      true_value;
      measured;
      error = measured -. true_value;
      budget;
      cost = cost_of ~captures }
  in
  let true_path_gain =
    List.fold_left
      (fun acc (s, _) -> acc +. Path.part_value path part ~stage:s.Stage.id ~name:"gain_db")
      0.0 (Path.gain_stages path)
  in
  let mixer = Path.first_mixer path in
  let lpf = lpf_stage path in
  let id s = String.lowercase_ascii s.Stage.id in
  (* Every capture replays the session engine, a pure function of its
     stimulus, so the procedures are independent and can share the engine
     across domains; results come back in procedure order regardless of
     pool size. *)
  let procedures =
    Array.of_list
      (List.concat
         [ [ (fun () ->
               entry "path gain (dB)" ~captures:1 ~true_value:true_path_gain
                 ~measured:(path_gain_db t ~level_dbm:Propagate.standard_test_level_dbm)
                 ~budget:0.5) ];
           (match mixer with
           | Some mx ->
             [ (fun () ->
                 entry
                   (id mx ^ " IIP3 (dBm)")
                   ~captures:1 ~true_value:(Path.part_value path part ~stage:mx.Stage.id ~name:"iip3_dbm")
                   ~measured:(mixer_iip3_dbm t ~strategy)
                   ~budget:(Propagate.err (Propagate.mixer_iip3 path ~strategy)));
               (fun () ->
                 entry
                   (id mx ^ " P1dB (dBm)")
                   ~captures:14 ~true_value:(Path.part_value path part ~stage:mx.Stage.id ~name:"p1db_dbm")
                   ~measured:(mixer_p1db_dbm t ~strategy)
                   ~budget:(Propagate.err (Propagate.mixer_p1db path ~strategy))) ]
           | None -> []);
           (match (lpf, mixer) with
           | Some lp, Some _ ->
             [ (fun () ->
                 entry
                   (String.uppercase_ascii (id lp) ^ " cutoff (Hz)")
                   ~captures:14 ~true_value:(Path.part_value path part ~stage:lp.Stage.id ~name:"cutoff_hz")
                   ~measured:(lpf_cutoff_hz t ~strategy)
                   ~budget:(Propagate.err (Propagate.lpf_cutoff path ~strategy))) ]
           | _ -> []);
           (match mixer with
           | Some mx ->
             let lo_id =
               match mx.Stage.block with Stage.Mix { lo_id; _ } -> lo_id | _ -> "LO"
             in
             [ (fun () ->
                 entry (lo_id ^ " frequency error (Hz)")
                   ~captures:1 ~true_value:(Path.part_value path part ~stage:lo_id ~name:"freq_error_hz")
                   ~measured:
                     (lo_frequency_hz t ~level_dbm:Propagate.standard_test_level_dbm
                     -. lo_nominal t)
                   ~budget:(Propagate.err (Propagate.lo_freq_error path))) ]
           | None -> []) ])
  in
  Array.to_list (Msoc_util.Pool.parallel_map pool (fun procedure -> procedure ()) procedures)

let validate_population ?(pool = Msoc_util.Pool.serial) ?(seed = 1000) path ~parts ~strategy ~rng =
  assert (parts > 0);
  (* Sample every part serially from [rng] first (so the population depends
     only on the generator state), then fan the per-part tester runs out
     across domains; part [i] always uses session seed [seed + i]. *)
  let sampled = Array.init parts (fun _ -> Path.sample_part path rng) in
  Msoc_util.Pool.parallel_init pool parts (fun i ->
      (sampled.(i), validate_part ~seed:(seed + i) path sampled.(i) ~strategy))
