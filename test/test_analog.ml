(* Unit tests for msoc_analog: block behavioural models, their attribute
   transforms, and the composed receiver path. *)

open Msoc_analog
module I = Msoc_util.Interval
module Prng = Msoc_util.Prng
module Units = Msoc_util.Units
module Attr = Msoc_signal.Attr
module Tone = Msoc_dsp.Tone
module Spectrum = Msoc_dsp.Spectrum
module Metrics = Msoc_dsp.Metrics

let approx eps = Alcotest.float eps
let ctx = Context.default

(* ---- Param ---- *)

let test_param_interval () =
  let p = Param.make ~nominal:10.0 ~tol:2.0 in
  let i = Param.interval p in
  Alcotest.check (approx 1e-9) "lo" 8.0 i.I.lo;
  Alcotest.check (approx 1e-9) "hi" 12.0 i.I.hi

let test_param_sampling_in_tolerance () =
  let p = Param.make ~nominal:5.0 ~tol:1.0 in
  let g = Prng.create 1 in
  for _ = 1 to 2000 do
    let v = Param.sample p g in
    if Float.abs (v -. 5.0) > 1.0 +. 1e-9 then Alcotest.fail "sample escaped tolerance"
  done

let test_param_exact () =
  let p = Param.make ~nominal:3.0 ~tol:0.0 in
  let g = Prng.create 2 in
  Alcotest.check (approx 0.0) "exact is deterministic" 3.0 (Param.sample p g)

(* ---- Nonlin ---- *)

(* the transfer curve applied to a copy of [xs] *)
let nonlin_apply n xs =
  let buf = Array.copy xs in
  Nonlin.apply_into n buf;
  buf

let test_nonlin_small_signal_gain () =
  let n = Nonlin.fit ~gain_lin:10.0 ~iip3_vpeak:1.0 () in
  Alcotest.check (approx 1e-6) "small-signal gain" 10.0 ((nonlin_apply n [| 1e-6 |]).(0) /. 1e-6)

let test_nonlin_im3_matches_iip3 () =
  (* Drive a two-tone through the cubic and check the IM3 level against
     P_IM3 = 3 P_in - 2 IIP3 (all input-referred, gain removed). *)
  let iip3_dbm = 10.0 in
  let n =
    Nonlin.fit ~gain_lin:1.0 ~iip3_vpeak:(Units.vpeak_of_dbm iip3_dbm) ()
  in
  let fs = 1e6 and samples = 8192 in
  let f1 = Tone.coherent_frequency ~sample_rate:fs ~samples ~target:90e3 in
  let f2 = Tone.coherent_frequency ~sample_rate:fs ~samples ~target:110e3 in
  let p_in = -20.0 in
  let amplitude = Units.vpeak_of_dbm p_in in
  let input =
    Tone.synthesize ~sample_rate:fs ~samples
      [ Tone.component ~freq:f1 ~amplitude (); Tone.component ~freq:f2 ~amplitude () ]
  in
  let output = nonlin_apply n input in
  let sp = Spectrum.analyze ~sample_rate:fs output in
  let im3_lo, _ = Metrics.intermod3_products ~f1 ~f2 in
  let im3_dbm = Units.dbm_of_vpeak (sqrt (2.0 *. Spectrum.tone_power sp ~freq:im3_lo)) in
  let expected = (3.0 *. p_in) -. (2.0 *. iip3_dbm) in
  Alcotest.check (approx 0.7) "IM3 level" expected im3_dbm

let test_nonlin_p1db_placement () =
  let gain_lin = 4.0 in
  let iip3 = Units.vpeak_of_dbm 20.0 in
  let p1db_dbm = 6.0 in
  let n = Nonlin.fit ~gain_lin ~iip3_vpeak:iip3 ~p1db_vpeak:(Units.vpeak_of_dbm p1db_dbm) () in
  let a = Units.vpeak_of_dbm p1db_dbm in
  (* the first harmonic of a coherent sine at the P1dB amplitude *)
  let fs = 1e6 and samples = 4096 in
  let freq = Tone.coherent_frequency ~sample_rate:fs ~samples ~target:10e3 in
  let input = Tone.synthesize ~sample_rate:fs ~samples [ Tone.component ~freq ~amplitude:a () ] in
  let fundamental = Tone.fit (nonlin_apply n input) ~sample_rate:fs ~freq in
  let gain_db_drop = 20.0 *. Float.log10 (fundamental.Tone.amplitude /. (gain_lin *. a)) in
  Alcotest.check (approx 1e-6) "1 dB compression at P1dB" (-1.0) gain_db_drop

let test_nonlin_saturation_clamps () =
  let n = Nonlin.fit ~gain_lin:10.0 ~iip3_vpeak:0.5 () in
  let sat = Nonlin.saturation_input n in
  Alcotest.(check bool) "finite saturation" true (Float.is_finite sat);
  match nonlin_apply n [| sat *. 1.5; sat *. 3.0; -.(sat *. 1.5) |] with
  | [| y1; y2; y3 |] ->
    Alcotest.check (approx 1e-9) "hard clamp" y1 y2;
    Alcotest.check (approx 1e-9) "odd symmetry" (-.y1) y3
  | _ -> Alcotest.fail "length changed"

(* ---- Amplifier ---- *)

let test_amp_gain_time_domain () =
  let values = Amplifier.nominal_values Amplifier.default_params in
  let inst = Amplifier.instance ctx values in
  (* small signal, average over many samples to suppress noise *)
  let x = 1e-3 in
  let n = 2000 in
  let buf = Array.make n x in
  Amplifier.kernel inst ~rng:(Prng.create 7) ~samples:n buf;
  let gain = Array.fold_left ( +. ) 0.0 buf /. float_of_int n /. x in
  Alcotest.check (approx 0.3) "voltage gain 20 dB = 10x" 10.0 gain

let test_amp_transform_applies_gain () =
  let s = Attr.single_tone ~freq_hz:1.1e6 ~power_dbm:(-27.0) () in
  let out = Amplifier.transform Amplifier.default_params ctx s in
  match out.Attr.tones with
  | [ tn ] ->
    Alcotest.check (approx 1e-9) "gain applied" (-7.0) (I.mid tn.Attr.power_dbm);
    Alcotest.check (approx 1e-9) "gain tolerance becomes accuracy" 1.0
      (Attr.power_accuracy_db tn);
    Alcotest.(check bool) "hd3 spur added" true
      (List.exists
         (fun sp -> match sp.Attr.origin with Attr.Harmonic 3 -> true | _ -> false)
         out.Attr.spurs)
  | _ -> Alcotest.fail "tone count"

let test_amp_transform_im3_pair () =
  let s = Attr.two_tone ~f1_hz:1.09e6 ~f2_hz:1.11e6 ~power_dbm:(-27.0) () in
  let out = Amplifier.transform Amplifier.default_params ctx s in
  let im3 =
    List.filter (fun sp -> sp.Attr.origin = Attr.Intermod3) out.Attr.spurs
  in
  Alcotest.(check int) "two IM3 products" 2 (List.length im3);
  (* P_IM3 = 3*(-27) - 2*8 + 20 = -77 dBm *)
  List.iter
    (fun sp -> Alcotest.check (approx 1e-6) "IM3 power" (-77.0) (I.mid sp.Attr.tone.Attr.power_dbm))
    im3

let test_amp_noise_floor_raises () =
  let s = Attr.single_tone ~noise_dbm:(-120.0) ~freq_hz:1.1e6 ~power_dbm:(-27.0) () in
  let out = Amplifier.transform Amplifier.default_params ctx s in
  (* noise must rise by at least the gain (20 dB) plus some NF contribution *)
  Alcotest.(check bool) "noise grew" true (out.Attr.noise_dbm > -100.5);
  Alcotest.(check bool) "but not absurdly" true (out.Attr.noise_dbm < -90.0)

(* ---- Local oscillator ---- *)

let test_lo_frequency () =
  (* without phase noise the track is a cosine at the nominal frequency
     plus the part's frequency error *)
  let params = Local_osc.default_params ~freq_hz:1e6 in
  let values =
    { (Local_osc.nominal_values params) with
      Local_osc.freq_error_hz = 150.0;
      phase_noise_deg_rms = 0.0 }
  in
  let fs = ctx.Context.sim_rate_hz and n = 20000 in
  let wave = Local_osc.track ctx values ~rng:(Prng.create 10) ~samples:n in
  let worst = ref 0.0 in
  Array.iteri
    (fun k v ->
      let expected = cos (Units.two_pi *. 1.00015e6 *. float_of_int k /. fs) in
      worst := Float.max !worst (Float.abs (v -. expected)))
    wave;
  Alcotest.(check bool) (Printf.sprintf "actual freq (worst sample error %g)" !worst) true
    (!worst < 1e-6)

let test_lo_waveform_spectrum () =
  let params = Local_osc.default_params ~freq_hz:1e6 in
  let values = Local_osc.nominal_values params in
  let n = 8192 in
  let wave = Local_osc.track ctx values ~rng:(Prng.create 10) ~samples:n in
  let sp = Spectrum.analyze ~sample_rate:ctx.Context.sim_rate_hz wave in
  let peak = Spectrum.peak_bin sp in
  Alcotest.check (Alcotest.float 2e3) "carrier at 1 MHz" 1e6 (Spectrum.frequency_of_bin sp peak);
  Alcotest.check (approx 0.05) "unit amplitude power" 0.5 (Spectrum.tone_power sp ~freq:1e6)

let test_lo_interval () =
  let params = Local_osc.default_params ~freq_hz:1e6 in
  let i = Local_osc.freq_interval_hz params in
  Alcotest.check (approx 1e-9) "err" 200.0 (I.err i);
  Alcotest.check (approx 1e-9) "mid" 1e6 (I.mid i)

(* ---- Mixer ---- *)

let test_mixer_downconversion () =
  let values = Mixer.nominal_values Mixer.default_params in
  let inst = Mixer.instance ctx values ~lo_drive_dbm:7.0 in
  let lo_params = Local_osc.default_params ~freq_hz:1e6 in
  let lo_values = Local_osc.nominal_values lo_params in
  let n = 16384 in
  let lo = Local_osc.track ctx lo_values ~rng:(Prng.create 22) ~samples:n in
  let fs = ctx.Context.sim_rate_hz in
  let f_rf = Tone.coherent_frequency ~sample_rate:fs ~samples:n ~target:1.1e6 in
  let input =
    Tone.synthesize ~sample_rate:fs ~samples:n
      [ Tone.component ~freq:f_rf ~amplitude:(Units.vpeak_of_dbm (-10.0)) () ]
  in
  let output = Array.copy input in
  Mixer.kernel inst ~lo ~rng:(Prng.create 21) ~samples:n output;
  let sp = Spectrum.analyze ~sample_rate:fs output in
  (* IF tone at ~100 kHz should carry conversion gain ~8 dB *)
  let p_if = Units.dbm_of_vpeak (sqrt (2.0 *. Spectrum.tone_power sp ~freq:(f_rf -. 1e6))) in
  Alcotest.check (Alcotest.float 0.8) "conversion gain" (-2.0) p_if;
  (* LO leakage at 1 MHz: drive 7 dBm - isolation 40 dB = -33 dBm *)
  let p_leak = Units.dbm_of_vpeak (sqrt (2.0 *. Spectrum.tone_power sp ~freq:1e6)) in
  Alcotest.check (Alcotest.float 1.0) "lo leakage" (-33.0) p_leak

let test_mixer_transform_translates () =
  let lo = Local_osc.default_params ~freq_hz:1e6 in
  let s = Attr.single_tone ~freq_hz:1.1e6 ~power_dbm:(-27.0) () in
  let out = Mixer.transform Mixer.default_params ~lo ctx s in
  (match out.Attr.tones with
  | [ tn ] ->
    Alcotest.check (approx 1.0) "translated to IF" 100e3 (I.mid tn.Attr.freq_hz);
    Alcotest.(check bool) "freq accuracy includes LO error" true
      (Attr.freq_accuracy_hz tn >= 200.0);
    Alcotest.check (approx 1e-9) "conversion gain" (-19.0) (I.mid tn.Attr.power_dbm)
  | _ -> Alcotest.fail "tone count");
  Alcotest.(check bool) "LO leak spur present" true
    (List.exists (fun sp -> sp.Attr.origin = Attr.Lo_leakage) out.Attr.spurs)

(* ---- LPF ---- *)

let test_lpf_passband_and_rolloff () =
  let params = Lpf.default_params ~clock_hz:3.3e6 in
  let values = Lpf.nominal_values params in
  Alcotest.check (approx 0.2) "passband gain" (-2.0) (Lpf.magnitude_db values ctx ~freq:20e3);
  Alcotest.check (approx 0.3) "-6 dB at fc (two 2nd-order sections)" (-8.02)
    (Lpf.magnitude_db values ctx ~freq:200e3);
  Alcotest.(check bool) "stopband floor respected" true
    (Lpf.magnitude_db values ctx ~freq:3e6 >= values.Lpf.gain_db +. values.Lpf.stopband_db -. 1e-9)

let test_lpf_time_domain_attenuation () =
  let params = Lpf.default_params ~clock_hz:3.3e6 in
  let values = Lpf.nominal_values params in
  let inst = Lpf.instance ctx ~clock_hz:3.3e6 values in
  let n = 16384 in
  let fs = ctx.Context.sim_rate_hz in
  let f = Tone.coherent_frequency ~sample_rate:fs ~samples:n ~target:800e3 in
  let input =
    Tone.synthesize ~sample_rate:fs ~samples:n [ Tone.component ~freq:f ~amplitude:0.1 () ]
  in
  let output = Array.copy input in
  Lpf.kernel inst ~rng:(Prng.create 31) ~samples:n output;
  let tail = Array.sub output (n / 2) (n / 2) in
  let sp = Spectrum.analyze ~sample_rate:fs tail in
  let attenuation =
    10.0 *. Float.log10 (Spectrum.tone_power sp ~freq:f /. (0.1 *. 0.1 /. 2.0))
  in
  Alcotest.check (Alcotest.float 1.5) "4x fc attenuation matches model"
    (Lpf.magnitude_db values ctx ~freq:f) attenuation

let test_lpf_clock_spur_emitted () =
  let params = Lpf.default_params ~clock_hz:1.9e6 in
  let values = Lpf.nominal_values params in
  let inst = Lpf.instance ctx ~clock_hz:1.9e6 values in
  let n = 16384 in
  let fs = ctx.Context.sim_rate_hz in
  let output = Array.make n 0.0 in
  Lpf.kernel inst ~rng:(Prng.create 32) ~samples:n output;
  let sp = Spectrum.analyze ~sample_rate:fs output in
  let spur_dbm = Units.dbm_of_vpeak (sqrt (2.0 *. Spectrum.tone_power sp ~freq:1.9e6)) in
  Alcotest.check (Alcotest.float 1.0) "clock spur level" values.Lpf.clock_spur_dbc spur_dbm

let test_lpf_transform_shapes_tones () =
  let params = Lpf.default_params ~clock_hz:3.3e6 in
  let s = Attr.two_tone ~f1_hz:100e3 ~f2_hz:800e3 ~power_dbm:(-20.0) () in
  let out = Lpf.transform params ctx s in
  match out.Attr.tones with
  | [ t1; t2 ] ->
    Alcotest.(check bool) "passband tone kept" true (I.mid t1.Attr.power_dbm > -23.0);
    Alcotest.(check bool) "out-of-band tone attenuated" true (I.mid t2.Attr.power_dbm < -40.0);
    Alcotest.(check bool) "clock spur tracked" true
      (List.exists (fun sp -> sp.Attr.origin = Attr.Clock_spur) out.Attr.spurs)
  | _ -> Alcotest.fail "tone count"

(* ---- ADC ---- *)

(* A zero-tolerance parameter. *)
let exact nominal = Param.make ~nominal ~tol:0.0

(* Convert [volts] one for one through the capture kernel, its thermal
   noise drawn from [rng]. *)
let adc_convert inst ~rng volts =
  Adc.kernel inst ~decimation:1 ~rng ~samples:(Array.length volts) volts

let adc_volts params codes = Array.map (fun c -> float_of_int c *. Adc.lsb_volts params) codes

let test_adc_codes_linear_ramp () =
  let params = { Adc.default_params with Adc.inl_lsb = exact 0.0;
                 dnl_lsb = exact 0.0; offset_error_v = exact 0.0;
                 nf_db = exact 0.0 } in
  let inst = Adc.instance params ctx (Adc.nominal_values params) ~rng:(Prng.create 41) in
  let rng = Prng.create 42 in
  let lsb = Adc.lsb_volts params in
  let ramp = [| -0.9; -0.5; -0.1; 0.0; 0.2; 0.7; 0.99 |] in
  Array.iteri
    (fun i back -> if Float.abs (back -. ramp.(i)) > lsb then Alcotest.failf "code error at %g V" ramp.(i))
    (adc_volts params (adc_convert inst ~rng ramp))

let test_adc_saturates () =
  let params = Adc.default_params in
  let inst = Adc.instance params ctx (Adc.nominal_values params) ~rng:(Prng.create 43) in
  let rng = Prng.create 44 in
  let half = 1 lsl (params.Adc.bits - 1) in
  Alcotest.(check (array int)) "rails" [| half - 1; -half |]
    (adc_convert inst ~rng [| 5.0; -5.0 |])

let test_adc_capture_decimates () =
  let params = Adc.default_params in
  let inst = Adc.instance params ctx (Adc.nominal_values params) ~rng:(Prng.create 45) in
  let samples = Array.init 64 (fun i -> float_of_int i /. 64.0) in
  let codes = Adc.kernel inst ~decimation:8 ~rng:(Prng.create 46) ~samples:64 samples in
  Alcotest.(check int) "decimated length" 8 (Array.length codes)

let test_adc_enob_close_to_ideal () =
  let params = { Adc.default_params with Adc.inl_lsb = exact 0.0;
                 dnl_lsb = exact 0.0; nf_db = exact 0.0 } in
  let inst = Adc.instance params ctx (Adc.nominal_values params) ~rng:(Prng.create 47) in
  let rng = Prng.create 48 in
  let n = 8192 in
  let fs = 1e6 in
  let f = Tone.coherent_frequency ~sample_rate:fs ~samples:n ~target:100e3 in
  let wave =
    Tone.synthesize ~sample_rate:fs ~samples:n [ Tone.component ~freq:f ~amplitude:0.95 () ]
  in
  let volts = adc_volts params (adc_convert inst ~rng wave) in
  let sp = Spectrum.analyze ~sample_rate:fs volts in
  let r = Metrics.analyze sp in
  Alcotest.(check bool) "ENOB within 1 bit of ideal" true
    (r.Metrics.enob_bits > float_of_int params.Adc.bits -. 1.0)

let test_adc_inl_creates_harmonics () =
  let clean = { Adc.default_params with Adc.inl_lsb = exact 0.0;
                dnl_lsb = exact 0.0; nf_db = exact 0.0 } in
  let bowed = { clean with Adc.inl_lsb = exact 8.0 } in
  let run params seed =
    let inst = Adc.instance params ctx (Adc.nominal_values params) ~rng:(Prng.create seed) in
    let rng = Prng.create (seed + 1) in
    let n = 8192 and fs = 1e6 in
    let f = Tone.coherent_frequency ~sample_rate:fs ~samples:n ~target:100e3 in
    let wave =
      Tone.synthesize ~sample_rate:fs ~samples:n [ Tone.component ~freq:f ~amplitude:0.9 () ]
    in
    let volts = adc_volts params (adc_convert inst ~rng wave) in
    let sp = Spectrum.analyze ~sample_rate:fs volts in
    (Metrics.analyze sp).Metrics.thd_db
  in
  Alcotest.(check bool) "INL bow worsens THD" true (run bowed 50 > run clean 52 +. 6.0)

let test_adc_transform_folds_and_adds_noise () =
  let s = Attr.single_tone ~noise_dbm:(-100.0) ~freq_hz:700e3 ~power_dbm:0.0 () in
  let out = Adc.transform Adc.default_params ~adc_rate_hz:1e6 ctx s in
  (match out.Attr.tones with
  | [ tn ] -> Alcotest.check (approx 1.0) "folded to 300 kHz" 300e3 (I.mid tn.Attr.freq_hz)
  | _ -> Alcotest.fail "tone count");
  Alcotest.(check bool) "quantization noise dominates" true (out.Attr.noise_dbm > -82.0)

(* ---- Sigma-delta ---- *)

let sd_ctx = { Context.default with Context.analysis_bw_hz = 100e3 }

let sd_instance ?(values = Sigma_delta.nominal_values (Sigma_delta.default_params ~full_scale_v:1.0)) () =
  Sigma_delta.instance (Sigma_delta.default_params ~full_scale_v:1.0) sd_ctx values

(* Modulate and decimate [wave] through a fresh kernel whose noise is drawn
   from [seed]. *)
let sd_capture ?values seed ~decimation wave =
  Sigma_delta.kernel (sd_instance ?values ()) ~decimation ~rng:(Prng.create seed)
    ~samples:(Array.length wave) wave

let sd_inband_snr ?values seed ~amplitude =
  let decim = 16 and n_out = 2048 in
  let fs = 8e6 in
  let out_rate = fs /. float_of_int decim in
  let f = Tone.coherent_frequency ~sample_rate:out_rate ~samples:n_out ~target:15e3 in
  let wave =
    Tone.synthesize ~sample_rate:fs ~samples:(n_out * decim)
      [ Tone.component ~freq:f ~amplitude () ]
  in
  let codes = sd_capture ?values seed ~decimation:decim wave in
  let volts = Array.map float_of_int codes in
  let sp = Spectrum.analyze ~sample_rate:out_rate volts in
  let signal = Spectrum.tone_power sp ~freq:f in
  let noise = ref 0.0 in
  for k = 1 to Spectrum.bin_count sp - 1 do
    let fr = Spectrum.frequency_of_bin sp k in
    if fr < 25e3 && Float.abs (fr -. f) > 2e3 then noise := !noise +. sp.Spectrum.bins.(k)
  done;
  10.0 *. Float.log10 (signal /. !noise)

let test_sd_bitstream_is_binary () =
  (* at decimation 2 the sinc^3 decimator weighs four bits by 1, 3, 3, 1:
     a ±1 bitstream can only give even codes within ±8 *)
  let codes = sd_capture 1 ~decimation:2 (Array.make 1000 0.3) in
  Array.iter
    (fun c -> if c land 1 <> 0 || abs c > 8 then Alcotest.failf "code %d is no image of a ±1 stream" c)
    codes

let test_sd_dc_tracking () =
  (* every call of the kernel starts the loop from rest; the decimator's
     gain at decimation 2 is 2^3 *)
  let modulate =
    Sigma_delta.kernel (sd_instance ()) ~decimation:2 ~rng:(Prng.create 2) ~samples:20000
  in
  List.iter
    (fun dc ->
      let codes = modulate (Array.make 20000 dc) in
      let mean =
        float_of_int (Array.fold_left ( + ) 0 codes) /. float_of_int (8 * Array.length codes)
      in
      Alcotest.check (approx 0.01) (Printf.sprintf "dc %.2f" dc) dc mean)
    [ -0.5; -0.2; 0.0; 0.3; 0.6 ]

let test_sd_capture_tone_fidelity () =
  let decim = 16 in
  let n_out = 4096 in
  let fs = 8e6 in
  let out_rate = fs /. float_of_int decim in
  let f = Tone.coherent_frequency ~sample_rate:out_rate ~samples:n_out ~target:20e3 in
  let wave =
    Tone.synthesize ~sample_rate:fs ~samples:(n_out * decim)
      [ Tone.component ~freq:f ~amplitude:0.6 () ]
  in
  let codes = sd_capture 3 ~decimation:decim wave in
  let scale = float_of_int (Sigma_delta.output_full_scale ~decimation:decim) in
  let volts = Array.map (fun c -> float_of_int c /. scale) codes in
  let sp = Spectrum.analyze ~sample_rate:out_rate volts in
  Alcotest.check (approx 0.02) "tone power through modulator+CIC" 0.18
    (Spectrum.tone_power sp ~freq:f)

let test_sd_inband_snr_high () =
  Alcotest.(check bool) "in-band SNR > 60 dB at OSR 160" true
    (sd_inband_snr 4 ~amplitude:0.6 > 60.0)

let test_sd_overload () =
  Alcotest.(check bool) "overload degrades SNDR" true
    (sd_inband_snr 11 ~amplitude:0.99 < sd_inband_snr 12 ~amplitude:0.6 -. 10.0)

let test_sd_leakage_hurts () =
  let leaky_values =
    { (Sigma_delta.nominal_values (Sigma_delta.default_params ~full_scale_v:1.0)) with
      Sigma_delta.leakage = 0.02 }
  in
  Alcotest.(check bool) "integrator leakage raises the in-band floor" true
    (sd_inband_snr ~values:leaky_values 22 ~amplitude:0.6 < sd_inband_snr 21 ~amplitude:0.6)

(* ---- Path ---- *)

let test_path_gain_interval () =
  let path = Path.default_receiver () in
  Alcotest.check (approx 1e-9) "nominal path gain" 26.0 (Path.nominal_path_gain_db path);
  Alcotest.check (approx 1e-9) "tolerance accumulates" 2.8
    (I.err (Path.path_gain_interval_db path))

let test_path_stages_order () =
  let path = Path.default_receiver () in
  let stim = Attr.single_tone ~freq_hz:1.1e6 ~power_dbm:(-27.0) () in
  let stages = Path.stages path stim in
  Alcotest.(check (list string)) "stage names" [ "amp"; "mixer"; "lpf"; "adc" ]
    (List.map fst stages)

let test_path_waveform_end_to_end () =
  let path = Path.default_receiver () in
  let fs = path.Path.ctx.Context.sim_rate_hz in
  let adc_rate = Path.adc_rate_hz path in
  let n_adc = 2048 in
  let n_sim = n_adc * Path.decimation path in
  let eng = Path.engine path (Path.nominal_part path) ~seed:77 ~samples:n_sim in
  let f_if = Tone.coherent_frequency ~sample_rate:adc_rate ~samples:n_adc ~target:100e3 in
  let f_rf = 1e6 +. f_if in
  let input =
    Tone.synthesize ~sample_rate:fs ~samples:n_sim
      [ Tone.component ~freq:f_rf ~amplitude:(Units.vpeak_of_dbm (-27.0)) () ]
  in
  let volts = Path.run_volts eng input in
  Alcotest.(check int) "decimated length" n_adc (Array.length volts);
  let sp = Spectrum.analyze ~sample_rate:adc_rate volts in
  let p_if = Units.dbm_of_vpeak (sqrt (2.0 *. Spectrum.tone_power sp ~freq:f_if)) in
  (* -27 dBm + 28 dB path gain ~ +1 dBm at the ADC *)
  Alcotest.check (Alcotest.float 1.5) "path gain realised" (-1.0) p_if

let test_path_attribute_vs_waveform_consistency () =
  (* The attribute-domain SNR prediction must bracket the measured one. *)
  let path = Path.default_receiver () in
  let fs = path.Path.ctx.Context.sim_rate_hz in
  let adc_rate = Path.adc_rate_hz path in
  let n_adc = 4096 in
  let n_sim = n_adc * Path.decimation path in
  let eng = Path.engine path (Path.nominal_part path) ~seed:5 ~samples:n_sim in
  let f_if = Tone.coherent_frequency ~sample_rate:adc_rate ~samples:n_adc ~target:100e3 in
  let f_rf = 1e6 +. f_if in
  let input =
    Tone.synthesize ~sample_rate:fs ~samples:n_sim
      [ Tone.component ~freq:f_rf ~amplitude:(Units.vpeak_of_dbm (-27.0)) () ]
  in
  let volts = Path.run_volts eng input in
  let sp = Spectrum.analyze ~sample_rate:adc_rate volts in
  let measured_snr = (Metrics.analyze sp).Metrics.snr_db in
  let stim =
    Attr.single_tone ~noise_dbm:(Context.thermal_noise_dbm path.Path.ctx) ~freq_hz:f_rf
      ~power_dbm:(-27.0) ()
  in
  let predicted = Attr.snr_db (Path.at_filter_input path stim) in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.1f within predicted [%.1f, %.1f] +/- 3 dB" measured_snr
       predicted.I.lo predicted.I.hi)
    true
    (measured_snr > predicted.I.lo -. 3.0 && measured_snr < predicted.I.hi +. 3.0)

(* A short two-tone stimulus for the engine-contract tests below, on every
   registered topology (a sampled part, so every stage's noise matters). *)
let engine_fixture name =
  let path = Option.get (Topology.build name) in
  let n_adc = 256 in
  let n_sim = n_adc * Path.decimation path in
  let fs = path.Path.ctx.Context.sim_rate_hz in
  let input =
    Tone.synthesize ~sample_rate:fs ~samples:n_sim
      [ Tone.component ~freq:1.09e6 ~amplitude:(Units.vpeak_of_dbm (-30.0)) ();
        Tone.component ~freq:1.11e6 ~amplitude:(Units.vpeak_of_dbm (-30.0)) () ]
  in
  let part = Path.sample_part path (Prng.create 9) in
  (path, part, n_sim, input)

let test_engine_runs_replay () =
  List.iter
    (fun name ->
      let path, part, n_sim, input = engine_fixture name in
      let original = Array.copy input in
      let eng = Path.engine path part ~seed:11 ~samples:n_sim in
      let first = Path.run_codes eng input in
      let second = Path.run_codes eng input in
      let fresh = Path.run_codes (Path.engine path part ~seed:11 ~samples:n_sim) input in
      Alcotest.(check (array int)) (name ^ ": second run = first") first second;
      Alcotest.(check (array int)) (name ^ ": second run = fresh engine") fresh second;
      Alcotest.(check bool) (name ^ ": input untouched") true (original = input);
      let other = Path.run_codes (Path.engine path part ~seed:12 ~samples:n_sim) input in
      Alcotest.(check bool) (name ^ ": the seed matters") true (other <> first))
    Topology.names

(* [run_codes] works in per-domain scratch: runs between two runs of one
   engine, of another engine with the same length (so the same scratch
   buffers) and of the same engine on another input, change neither the
   second run's codes nor the codes the first run returned. *)
let test_engine_scratch_interleaved () =
  List.iter
    (fun name ->
      let path, part, n_sim, input = engine_fixture name in
      let eng = Path.engine path part ~seed:11 ~samples:n_sim in
      let other = Path.engine path part ~seed:12 ~samples:n_sim in
      let first = Path.run_codes eng input in
      let kept = Array.copy first in
      let between = Path.run_codes other input in
      ignore (Path.run_codes eng (Array.make n_sim 0.0));
      Alcotest.(check (array int)) (name ^ ": returned codes untouched") kept first;
      Alcotest.(check bool) (name ^ ": the other engine ran") true (between <> kept);
      Alcotest.(check (array int)) (name ^ ": second run = first") kept
        (Path.run_codes eng input))
    Topology.names

let test_engine_shared_across_domains () =
  List.iter
    (fun name ->
      let path, part, n_sim, input = engine_fixture name in
      let eng = Path.engine path part ~seed:11 ~samples:n_sim in
      let serial = Path.run_codes eng input in
      (* one run per grain, spread over the pool's four domains *)
      let results =
        Msoc_util.Pool.with_pool ~size:4 (fun pool ->
            Msoc_util.Pool.parallel_init ~grain:1 pool 8 (fun _ -> Path.run_codes eng input))
      in
      Array.iteri
        (fun i codes ->
          Alcotest.(check (array int)) (Printf.sprintf "%s: run %d" name i) serial codes)
        results)
    Topology.names

let test_engine_rejects_wrong_length () =
  let path, part, n_sim, input = engine_fixture "default" in
  let eng = Path.engine path part ~seed:11 ~samples:n_sim in
  List.iter
    (fun n ->
      match Path.run_codes eng (Array.sub input 0 n) with
      | _ -> Alcotest.failf "a %d-sample input was accepted by a %d-sample engine" n n_sim
      | exception Invalid_argument _ -> ())
    [ 0; n_sim - 1 ];
  match Path.run_volts eng (Array.append input [| 0.0 |]) with
  | _ -> Alcotest.fail "a longer input was accepted"
  | exception Invalid_argument _ -> ()

let test_sampled_parts_differ_but_within_tolerance () =
  let path = Path.default_receiver () in
  let g = Prng.create 123 in
  let p1 = Path.sample_part path g and p2 = Path.sample_part path g in
  let amp_gain p = Path.part_value path p ~stage:"Amp" ~name:"gain_db" in
  Alcotest.(check bool) "parts differ" true (amp_gain p1 <> amp_gain p2);
  List.iter
    (fun (p : Path.part) ->
      if Float.abs (amp_gain p -. 20.0) > 1.0 then
        Alcotest.fail "sampled gain escaped tolerance")
    [ p1; p2 ]

(* ---- Topology registry ---- *)

let test_topology_registry_builds () =
  Alcotest.(check bool) "registry non-empty" true (Topology.names <> []);
  Alcotest.(check bool) "default registered" true (List.mem "default" Topology.names);
  List.iter
    (fun name ->
      match Topology.build name with
      | Some _ -> ()
      | None -> Alcotest.failf "Topology.build %S returned None" name)
    Topology.names;
  Alcotest.(check (option pass)) "unknown name rejected" None (Topology.build "no-such")

let test_topology_registry_sorted () =
  (* pinned: the registry lists in sorted order, so --list-topologies and
     every iteration over it is stable regardless of registration order *)
  Alcotest.(check (list string)) "names sorted and pinned"
    [ "amp-bypass"; "default"; "sigma-delta" ]
    Topology.names;
  Alcotest.(check (list string)) "summaries mirror names" Topology.names
    (List.map fst Topology.summaries)

(* Property: for every registered topology the interval arithmetic of
   [Path.path_gain_interval_db] bounds the pass-band gain of each of 1000
   Monte-Carlo manufactured parts. *)
let test_topology_mc_gain_within_interval () =
  List.iter
    (fun name ->
      let path =
        match Topology.build name with
        | Some p -> p
        | None -> Alcotest.failf "Topology.build %S returned None" name
      in
      let interval = Path.path_gain_interval_db path in
      let g = Prng.create 20260807 in
      for i = 1 to 1000 do
        let part = Path.sample_part path g in
        let gain =
          List.fold_left
            (fun acc (s, _) ->
              acc +. Path.part_value path part ~stage:s.Stage.id ~name:"gain_db")
            0.0 (Path.gain_stages path)
        in
        if not (I.contains interval gain) then
          Alcotest.failf "%s part %d: gain %.6f outside [%.6f, %.6f]" name i gain
            interval.I.lo interval.I.hi
      done)
    Topology.names

(* Every block parameter as the block records declare it, grouped by the
   owner id it answers to: the reference the path's by-name lookups must
   agree with. *)
let declared_params (s : Stage.t) =
  match s.Stage.block with
  | Stage.Amp p ->
    Amplifier.
      [ (s.Stage.id,
         [ ("gain_db", p.gain_db); ("iip3_dbm", p.iip3_dbm); ("dc_offset_v", p.dc_offset_v);
           ("nf_db", p.nf_db) ]) ]
  | Stage.Mix { lo_id; lo; mixer = p } ->
    Mixer.
      [ (s.Stage.id,
         [ ("gain_db", p.gain_db); ("iip3_dbm", p.iip3_dbm);
           ("lo_isolation_db", p.lo_isolation_db); ("nf_db", p.nf_db); ("p1db_dbm", p.p1db_dbm) ]);
        (lo_id,
         Local_osc.
           [ ("freq_error_hz", lo.freq_error_hz); ("phase_noise_deg_rms", lo.phase_noise_deg_rms) ])
      ]
  | Stage.Lpf p ->
    Lpf.
      [ (s.Stage.id,
         [ ("gain_db", p.gain_db); ("cutoff_hz", p.cutoff_hz); ("stopband_db", p.stopband_db);
           ("clock_spur_dbc", p.clock_spur_dbc); ("nf_db", p.nf_db) ]) ]
  | Stage.Adc { adc = p; _ } ->
    Adc.
      [ (s.Stage.id,
         [ ("offset_error_v", p.offset_error_v); ("inl_lsb", p.inl_lsb); ("dnl_lsb", p.dnl_lsb);
           ("nf_db", p.nf_db) ]) ]
  | Stage.Sd_adc { sd = p; _ } ->
    Sigma_delta.
      [ (s.Stage.id,
         [ ("leakage", p.leakage); ("gain_error", p.gain_error);
           ("comparator_offset_v", p.comparator_offset_v); ("nf_db", p.nf_db) ]) ]

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* [f ()] raises [Invalid_argument] with a message naming [what]. *)
let raises_naming label what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" label
  | exception Invalid_argument msg ->
    if not (contains msg what) then Alcotest.failf "%s: %S does not name %S" label msg what

(* The one parameter table, row by row, on every registered topology: each
   owner's rows are the declared parameters in order, [Path.param] returns
   the record's own [Param.t], a part's value reads back what was written
   and writing one row leaves every other row's value unchanged. *)
let test_topology_parameter_table () =
  List.iter
    (fun name ->
      let path = Option.get (Topology.build name) in
      let declared = List.concat_map declared_params path.Path.stages in
      List.iter
        (fun s ->
          let own = declared_params s in
          Alcotest.(check (list string)) (name ^ " owners") (List.map fst own) (Stage.owners s);
          List.iter
            (fun (owner, params) ->
              Alcotest.(check (list string))
                (Printf.sprintf "%s %s rows" name owner)
                (List.map fst params)
                (List.map (fun r -> r.Stage.name) (Stage.rows s ~owner)))
            own)
        path.Path.stages;
      let rows =
        List.concat_map
          (fun (owner, params) -> List.map (fun (n, p) -> (owner, n, p)) params)
          declared
      in
      let read part =
        List.map (fun (owner, n, _) -> Path.part_value path part ~stage:owner ~name:n) rows
      in
      let part = Path.sample_part path (Prng.create 17) in
      let before = read part in
      List.iteri
        (fun i (owner, n, (p : Param.t)) ->
          let label = Printf.sprintf "%s %s.%s" name owner n in
          (* the very field of the block record, not an equal copy *)
          Alcotest.(check bool) (label ^ " param") true (Path.param path ~stage:owner ~name:n == p);
          Alcotest.(check (float 0.0)) (label ^ " nominal part") p.Param.nominal
            (Path.part_value path (Path.nominal_part path) ~stage:owner ~name:n);
          (* outside the row's tolerance, so never the sampled part's own value *)
          let x = p.Param.nominal +. (2.0 *. p.Param.tol) +. 1.0 in
          let written = Path.with_value path part ~stage:owner ~name:n x in
          Alcotest.(check (float 0.0)) (label ^ " reads back") x
            (Path.part_value path written ~stage:owner ~name:n);
          List.iteri
            (fun j ((o, m, _), (was, now)) ->
              if j <> i then
                Alcotest.(check (float 0.0)) (Printf.sprintf "%s leaves %s.%s" label o m) was now)
            (List.combine rows (List.combine before (read written))))
        rows;
      let first = match rows with (owner, _, _) :: _ -> owner | [] -> assert false in
      let part = Path.nominal_part path in
      List.iter
        (fun (stage, n, what) ->
          let label = Printf.sprintf "%s %s.%s" name stage n in
          raises_naming (label ^ " param") what (fun () -> Path.param path ~stage ~name:n);
          raises_naming (label ^ " part_value") what (fun () ->
              Path.part_value path part ~stage ~name:n);
          raises_naming (label ^ " with_value") what (fun () ->
              Path.with_value path part ~stage ~name:n 0.0))
        [ ("No_such_stage", "gain_db", "No_such_stage");
          (first, "no_such_param", "no_such_param");
          (* a name only the LO's owner answers to *)
          (first, "freq_error_hz", "freq_error_hz") ])
    Topology.names

let () =
  Alcotest.run "msoc_analog"
    [ ( "param",
        [ Alcotest.test_case "interval" `Quick test_param_interval;
          Alcotest.test_case "sampling in tolerance" `Quick test_param_sampling_in_tolerance;
          Alcotest.test_case "exact" `Quick test_param_exact ] );
      ( "nonlin",
        [ Alcotest.test_case "small-signal gain" `Quick test_nonlin_small_signal_gain;
          Alcotest.test_case "IM3 matches IIP3" `Quick test_nonlin_im3_matches_iip3;
          Alcotest.test_case "P1dB placement" `Quick test_nonlin_p1db_placement;
          Alcotest.test_case "saturation clamps" `Quick test_nonlin_saturation_clamps ] );
      ( "amplifier",
        [ Alcotest.test_case "time-domain gain" `Quick test_amp_gain_time_domain;
          Alcotest.test_case "transform gain+accuracy" `Quick test_amp_transform_applies_gain;
          Alcotest.test_case "transform IM3 pair" `Quick test_amp_transform_im3_pair;
          Alcotest.test_case "noise floor" `Quick test_amp_noise_floor_raises ] );
      ( "local-osc",
        [ Alcotest.test_case "frequency" `Quick test_lo_frequency;
          Alcotest.test_case "waveform spectrum" `Quick test_lo_waveform_spectrum;
          Alcotest.test_case "interval" `Quick test_lo_interval ] );
      ( "mixer",
        [ Alcotest.test_case "downconversion" `Quick test_mixer_downconversion;
          Alcotest.test_case "transform translates" `Quick test_mixer_transform_translates ] );
      ( "lpf",
        [ Alcotest.test_case "response" `Quick test_lpf_passband_and_rolloff;
          Alcotest.test_case "time-domain attenuation" `Quick test_lpf_time_domain_attenuation;
          Alcotest.test_case "clock spur" `Quick test_lpf_clock_spur_emitted;
          Alcotest.test_case "transform shaping" `Quick test_lpf_transform_shapes_tones ] );
      ( "adc",
        [ Alcotest.test_case "linear ramp" `Quick test_adc_codes_linear_ramp;
          Alcotest.test_case "saturation" `Quick test_adc_saturates;
          Alcotest.test_case "capture decimates" `Quick test_adc_capture_decimates;
          Alcotest.test_case "ENOB near ideal" `Quick test_adc_enob_close_to_ideal;
          Alcotest.test_case "INL harmonics" `Quick test_adc_inl_creates_harmonics;
          Alcotest.test_case "transform fold+noise" `Quick test_adc_transform_folds_and_adds_noise ] );
      ( "sigma-delta",
        [ Alcotest.test_case "binary bitstream" `Quick test_sd_bitstream_is_binary;
          Alcotest.test_case "dc tracking" `Quick test_sd_dc_tracking;
          Alcotest.test_case "tone fidelity" `Quick test_sd_capture_tone_fidelity;
          Alcotest.test_case "in-band SNR" `Quick test_sd_inband_snr_high;
          Alcotest.test_case "overload" `Quick test_sd_overload;
          Alcotest.test_case "leakage floor" `Quick test_sd_leakage_hurts ] );
      ( "path",
        [ Alcotest.test_case "gain interval" `Quick test_path_gain_interval;
          Alcotest.test_case "stage order" `Quick test_path_stages_order;
          Alcotest.test_case "waveform end-to-end" `Quick test_path_waveform_end_to_end;
          Alcotest.test_case "attribute vs waveform" `Quick
            test_path_attribute_vs_waveform_consistency;
          Alcotest.test_case "sampled parts" `Quick test_sampled_parts_differ_but_within_tolerance;
          Alcotest.test_case "engine runs replay" `Quick test_engine_runs_replay;
          Alcotest.test_case "engine scratch interleaved" `Quick test_engine_scratch_interleaved;
          Alcotest.test_case "engine shared across domains" `Quick
            test_engine_shared_across_domains;
          Alcotest.test_case "engine rejects wrong length" `Quick
            test_engine_rejects_wrong_length ] );
      ( "topology",
        [ Alcotest.test_case "registry builds" `Quick test_topology_registry_builds;
          Alcotest.test_case "registry sorted" `Quick test_topology_registry_sorted;
          Alcotest.test_case "MC gain within interval" `Quick
            test_topology_mc_gain_within_interval;
          Alcotest.test_case "parameter table" `Quick test_topology_parameter_table ] ) ]
