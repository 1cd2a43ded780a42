(* First-class stage descriptor: one analog (or digitizing) block of a
   signal path, carrying its toleranced parameter set, attribute-domain
   transfer function and waveform-engine block kernel.  The test-synthesis core
   iterates over these generically instead of naming receiver fields. *)

module Prng = Msoc_util.Prng
module Attr = Msoc_signal.Attr

type block =
  | Amp of Amplifier.params
  | Mix of { lo_id : string; lo : Local_osc.params; mixer : Mixer.params }
  | Lpf of Lpf.params
  | Adc of { adc : Adc.params; decimation : int }
  | Sd_adc of { sd : Sigma_delta.params; decimation : int }

type t = { id : string; block : block }

type values =
  | Amp_v of Amplifier.values
  | Mix_v of { lo_v : Local_osc.values; mixer_v : Mixer.values }
  | Lpf_v of Lpf.values
  | Adc_v of Adc.values
  | Sd_v of Sigma_delta.values

(* ---- registry constructors ---- *)

let amp ?(id = "Amp") params = { id; block = Amp params }

let mixer ?(id = "Mixer") ?(lo_id = "LO") ~lo params =
  { id; block = Mix { lo_id; lo; mixer = params } }

let lpf ?(id = "LPF") params = { id; block = Lpf params }
let adc ?(id = "ADC") ~decimation params = { id; block = Adc { adc = params; decimation } }

let sigma_delta ?(id = "ADC") ~decimation params =
  { id; block = Sd_adc { sd = params; decimation } }

(* ---- structural queries ---- *)

let lo_id t = match t.block with Mix { lo_id; _ } -> Some lo_id | _ -> None
let lo_params t = match t.block with Mix { lo; _ } -> Some lo | _ -> None

let is_digitizer t =
  match t.block with Adc _ | Sd_adc _ -> true | Amp _ | Mix _ | Lpf _ -> false

let decimation t =
  match t.block with
  | Adc { decimation; _ } | Sd_adc { decimation; _ } -> Some decimation
  | Amp _ | Mix _ | Lpf _ -> None

(* Output-rate cycles for the block's transient to die out after a
   stimulus change, before a capture is trustworthy.  Wideband blocks
   settle in a few cycles; the channel filter dominates; a sigma-delta
   must flush its decimation chain (third-order CIC: three decimation
   periods). *)
let settle_cycles t =
  match t.block with
  | Amp _ -> 4
  | Mix _ -> 8
  | Lpf _ -> 32
  | Adc _ -> 4
  | Sd_adc { decimation; _ } -> 3 * decimation

(* ---- toleranced parameters, by conventional name ---- *)

let params t =
  match t.block with
  | Amp p ->
    [ ("gain_db", p.Amplifier.gain_db); ("iip3_dbm", p.Amplifier.iip3_dbm);
      ("dc_offset_v", p.Amplifier.dc_offset_v); ("nf_db", p.Amplifier.nf_db) ]
  | Mix { mixer = p; _ } ->
    [ ("gain_db", p.Mixer.gain_db); ("iip3_dbm", p.Mixer.iip3_dbm);
      ("lo_isolation_db", p.Mixer.lo_isolation_db); ("nf_db", p.Mixer.nf_db);
      ("p1db_dbm", p.Mixer.p1db_dbm) ]
  | Lpf p ->
    [ ("gain_db", p.Lpf.gain_db); ("cutoff_hz", p.Lpf.cutoff_hz);
      ("stopband_db", p.Lpf.stopband_db); ("clock_spur_dbc", p.Lpf.clock_spur_dbc);
      ("nf_db", p.Lpf.nf_db) ]
  | Adc { adc = p; _ } ->
    [ ("offset_error_v", p.Adc.offset_error_v); ("inl_lsb", p.Adc.inl_lsb);
      ("dnl_lsb", p.Adc.dnl_lsb); ("nf_db", p.Adc.nf_db) ]
  | Sd_adc { sd = p; _ } ->
    [ ("leakage", p.Sigma_delta.leakage); ("gain_error", p.Sigma_delta.gain_error);
      ("comparator_offset_v", p.Sigma_delta.comparator_offset_v);
      ("nf_db", p.Sigma_delta.nf_db) ]

let lo_params_named t =
  match t.block with
  | Mix { lo; _ } ->
    [ ("freq_error_hz", lo.Local_osc.freq_error_hz);
      ("phase_noise_deg_rms", lo.Local_osc.phase_noise_deg_rms) ]
  | Amp _ | Lpf _ | Adc _ | Sd_adc _ -> []

let param t ~name = List.assoc_opt name (params t)

(* De-embedding info: the pass-band gain every non-digitizer stage inserts
   in front of whatever follows it, and its cascade noise contribution. *)
let gain_param t =
  match t.block with
  | Amp p -> Some p.Amplifier.gain_db
  | Mix { mixer; _ } -> Some mixer.Mixer.gain_db
  | Lpf p -> Some p.Lpf.gain_db
  | Adc _ | Sd_adc _ -> None

let nf_param t =
  match t.block with
  | Amp p -> Some p.Amplifier.nf_db
  | Mix { mixer; _ } -> Some mixer.Mixer.nf_db
  | Lpf p -> Some p.Lpf.nf_db
  | Adc { adc; _ } -> Some adc.Adc.nf_db
  | Sd_adc { sd; _ } -> Some sd.Sigma_delta.nf_db

(* ---- manufactured-part values ---- *)

let nominal_values t =
  match t.block with
  | Amp p -> Amp_v (Amplifier.nominal_values p)
  | Mix { lo; mixer; _ } ->
    Mix_v { lo_v = Local_osc.nominal_values lo; mixer_v = Mixer.nominal_values mixer }
  | Lpf p -> Lpf_v (Lpf.nominal_values p)
  | Adc { adc; _ } -> Adc_v (Adc.nominal_values adc)
  | Sd_adc { sd; _ } -> Sd_v (Sigma_delta.nominal_values sd)

(* Draw order (mixer before LO within a mixer stage) is part of the
   deterministic-part contract: it reproduces the historical sampler,
   whose record expression evaluated its fields right to left. *)
let sample_values t g =
  match t.block with
  | Amp p -> Amp_v (Amplifier.sample_values p g)
  | Mix { lo; mixer; _ } ->
    let mixer_v = Mixer.sample_values mixer g in
    let lo_v = Local_osc.sample_values lo g in
    Mix_v { lo_v; mixer_v }
  | Lpf p -> Lpf_v (Lpf.sample_values p g)
  | Adc { adc; _ } -> Adc_v (Adc.sample_values adc g)
  | Sd_adc { sd; _ } -> Sd_v (Sigma_delta.sample_values sd g)

let value values ~name =
  match values with
  | Amp_v v -> (
    match name with
    | "gain_db" -> Some v.Amplifier.gain_db
    | "iip3_dbm" -> Some v.Amplifier.iip3_dbm
    | "dc_offset_v" -> Some v.Amplifier.dc_offset_v
    | "nf_db" -> Some v.Amplifier.nf_db
    | _ -> None)
  | Mix_v { mixer_v = v; _ } -> (
    match name with
    | "gain_db" -> Some v.Mixer.gain_db
    | "iip3_dbm" -> Some v.Mixer.iip3_dbm
    | "lo_isolation_db" -> Some v.Mixer.lo_isolation_db
    | "nf_db" -> Some v.Mixer.nf_db
    | "p1db_dbm" -> Some v.Mixer.p1db_dbm
    | _ -> None)
  | Lpf_v v -> (
    match name with
    | "gain_db" -> Some v.Lpf.gain_db
    | "cutoff_hz" -> Some v.Lpf.cutoff_hz
    | "stopband_db" -> Some v.Lpf.stopband_db
    | "clock_spur_dbc" -> Some v.Lpf.clock_spur_dbc
    | "nf_db" -> Some v.Lpf.nf_db
    | _ -> None)
  | Adc_v v -> (
    match name with
    | "offset_error_v" -> Some v.Adc.offset_error_v
    | "inl_lsb" -> Some v.Adc.inl_lsb
    | "dnl_lsb" -> Some v.Adc.dnl_lsb
    | "nf_db" -> Some v.Adc.nf_db
    | _ -> None)
  | Sd_v v -> (
    match name with
    | "leakage" -> Some v.Sigma_delta.leakage
    | "gain_error" -> Some v.Sigma_delta.gain_error
    | "comparator_offset_v" -> Some v.Sigma_delta.comparator_offset_v
    | "nf_db" -> Some v.Sigma_delta.nf_db
    | _ -> None)

let lo_value values ~name =
  match values with
  | Mix_v { lo_v = v; _ } -> (
    match name with
    | "freq_error_hz" -> Some v.Local_osc.freq_error_hz
    | "phase_noise_deg_rms" -> Some v.Local_osc.phase_noise_deg_rms
    | _ -> None)
  | Amp_v _ | Lpf_v _ | Adc_v _ | Sd_v _ -> None

let set_value values ~name x =
  match values with
  | Amp_v v -> (
    match name with
    | "gain_db" -> Some (Amp_v { v with Amplifier.gain_db = x })
    | "iip3_dbm" -> Some (Amp_v { v with Amplifier.iip3_dbm = x })
    | "dc_offset_v" -> Some (Amp_v { v with Amplifier.dc_offset_v = x })
    | "nf_db" -> Some (Amp_v { v with Amplifier.nf_db = x })
    | _ -> None)
  | Mix_v { lo_v; mixer_v = v } -> (
    let mix mixer_v = Some (Mix_v { lo_v; mixer_v }) in
    match name with
    | "gain_db" -> mix { v with Mixer.gain_db = x }
    | "iip3_dbm" -> mix { v with Mixer.iip3_dbm = x }
    | "lo_isolation_db" -> mix { v with Mixer.lo_isolation_db = x }
    | "nf_db" -> mix { v with Mixer.nf_db = x }
    | "p1db_dbm" -> mix { v with Mixer.p1db_dbm = x }
    | _ -> None)
  | Lpf_v v -> (
    match name with
    | "gain_db" -> Some (Lpf_v { v with Lpf.gain_db = x })
    | "cutoff_hz" -> Some (Lpf_v { v with Lpf.cutoff_hz = x })
    | "stopband_db" -> Some (Lpf_v { v with Lpf.stopband_db = x })
    | "clock_spur_dbc" -> Some (Lpf_v { v with Lpf.clock_spur_dbc = x })
    | "nf_db" -> Some (Lpf_v { v with Lpf.nf_db = x })
    | _ -> None)
  | Adc_v v -> (
    match name with
    | "offset_error_v" -> Some (Adc_v { v with Adc.offset_error_v = x })
    | "inl_lsb" -> Some (Adc_v { v with Adc.inl_lsb = x })
    | "dnl_lsb" -> Some (Adc_v { v with Adc.dnl_lsb = x })
    | "nf_db" -> Some (Adc_v { v with Adc.nf_db = x })
    | _ -> None)
  | Sd_v v -> (
    match name with
    | "leakage" -> Some (Sd_v { v with Sigma_delta.leakage = x })
    | "gain_error" -> Some (Sd_v { v with Sigma_delta.gain_error = x })
    | "comparator_offset_v" -> Some (Sd_v { v with Sigma_delta.comparator_offset_v = x })
    | "nf_db" -> Some (Sd_v { v with Sigma_delta.nf_db = x })
    | _ -> None)

let set_lo_value values ~name x =
  match values with
  | Mix_v { lo_v = v; mixer_v } -> (
    let mix lo_v = Some (Mix_v { lo_v; mixer_v }) in
    match name with
    | "freq_error_hz" -> mix { v with Local_osc.freq_error_hz = x }
    | "phase_noise_deg_rms" -> mix { v with Local_osc.phase_noise_deg_rms = x }
    | _ -> None)
  | Amp_v _ | Lpf_v _ | Adc_v _ | Sd_v _ -> None

(* ---- attribute-domain transfer ---- *)

let transfer t ~ctx ~adc_rate_hz signal =
  match t.block with
  | Amp p -> Amplifier.transform p ctx signal
  | Mix { lo; mixer; _ } -> Mixer.transform mixer ~lo ctx signal
  | Lpf p -> Lpf.transform p ctx signal
  | Adc { adc; _ } -> Adc.transform adc ~adc_rate_hz ctx signal
  | Sd_adc { sd; _ } -> Sigma_delta.transform sd ~adc_rate_hz ctx signal

(* ---- waveform engine ---- *)

type runtime =
  | Analog of (float array -> unit)
  | Digitize of { capture : float array -> int array; volts_per_code : float }

(* PRNG streams split off [root] sequentially, in stage order, with the LO
   stream before the mixer's and the ADC build stream before its runtime
   stream — the exact split sequence the monolithic engine used, so seeded
   waveforms are bit-identical.  Every track is drawn here, once. *)
let instantiate t ~ctx values ~root ~samples =
  match (t.block, values) with
  | Amp _, Amp_v v ->
    let rng = Prng.split root in
    Analog (Amplifier.kernel (Amplifier.instance ctx v) ~rng ~samples)
  | Mix { lo; _ }, Mix_v { lo_v; mixer_v } ->
    let lo_rng = Prng.split root in
    let mixer_rng = Prng.split root in
    let lo_track = Local_osc.track ctx lo_v ~rng:lo_rng ~samples in
    let inst = Mixer.instance ctx mixer_v ~lo_drive_dbm:lo.Local_osc.drive_dbm in
    Analog (Mixer.kernel inst ~lo:lo_track ~rng:mixer_rng ~samples)
  | Lpf p, Lpf_v v ->
    let rng = Prng.split root in
    Analog (Lpf.kernel (Lpf.instance ctx ~clock_hz:p.Lpf.clock_hz v) ~rng ~samples)
  | Adc { adc; decimation }, Adc_v v ->
    let build_rng = Prng.split root in
    let run_rng = Prng.split root in
    let inst = Adc.instance adc ctx v ~rng:build_rng in
    Digitize
      { capture = Adc.kernel inst ~decimation ~rng:run_rng ~samples;
        volts_per_code = Adc.lsb_volts adc }
  | Sd_adc { sd; decimation }, Sd_v v ->
    let rng = Prng.split root in
    Digitize
      { capture = Sigma_delta.kernel (Sigma_delta.instance sd ctx v) ~decimation ~rng ~samples;
        volts_per_code =
          sd.Sigma_delta.full_scale_v
          /. float_of_int (Sigma_delta.output_full_scale ~decimation) }
  | (Amp _ | Mix _ | Lpf _ | Adc _ | Sd_adc _), _ ->
    invalid_arg "Stage.instantiate: values do not match the stage's block"
