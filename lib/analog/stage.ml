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

(* ---- toleranced parameters: one row each ---- *)

type row = {
  name : string;
  param : block -> Param.t;
  get : values -> float;
  set : values -> float -> values;
}

let mismatch () = invalid_arg "Stage: values do not match the stage's block"

(* A row over one block's own records, lifted onto stages: [params] and
   [part] project the records out of a stage's block and a part's values,
   and [put] writes an updated values record back. *)
let lift params part put name param get set =
  { name;
    param = (fun b -> param (params b));
    get = (fun v -> get (part v));
    set = (fun v x -> put v (set (part v) x)) }

let amp_rows =
  let row =
    lift (function Amp p -> p | _ -> mismatch ()) (function Amp_v v -> v | _ -> mismatch ())
      (fun _ v -> Amp_v v)
  in
  Amplifier.
    [ row "gain_db" (fun p -> p.gain_db) (fun v -> v.gain_db) (fun v x -> { v with gain_db = x });
      row "iip3_dbm" (fun p -> p.iip3_dbm) (fun v -> v.iip3_dbm)
        (fun v x -> { v with iip3_dbm = x });
      row "dc_offset_v" (fun p -> p.dc_offset_v) (fun v -> v.dc_offset_v)
        (fun v x -> { v with dc_offset_v = x });
      row "nf_db" (fun p -> p.nf_db) (fun v -> v.nf_db) (fun v x -> { v with nf_db = x }) ]

let mixer_rows =
  let row =
    lift
      (function Mix { mixer; _ } -> mixer | _ -> mismatch ())
      (function Mix_v { mixer_v; _ } -> mixer_v | _ -> mismatch ())
      (fun v mixer_v -> match v with Mix_v m -> Mix_v { m with mixer_v } | _ -> mismatch ())
  in
  Mixer.
    [ row "gain_db" (fun p -> p.gain_db) (fun v -> v.gain_db) (fun v x -> { v with gain_db = x });
      row "iip3_dbm" (fun p -> p.iip3_dbm) (fun v -> v.iip3_dbm)
        (fun v x -> { v with iip3_dbm = x });
      row "lo_isolation_db" (fun p -> p.lo_isolation_db) (fun v -> v.lo_isolation_db)
        (fun v x -> { v with lo_isolation_db = x });
      row "nf_db" (fun p -> p.nf_db) (fun v -> v.nf_db) (fun v x -> { v with nf_db = x });
      row "p1db_dbm" (fun p -> p.p1db_dbm) (fun v -> v.p1db_dbm)
        (fun v x -> { v with p1db_dbm = x }) ]

let lo_rows =
  let row =
    lift
      (function Mix { lo; _ } -> lo | _ -> mismatch ())
      (function Mix_v { lo_v; _ } -> lo_v | _ -> mismatch ())
      (fun v lo_v -> match v with Mix_v m -> Mix_v { m with lo_v } | _ -> mismatch ())
  in
  Local_osc.
    [ row "freq_error_hz" (fun p -> p.freq_error_hz) (fun v -> v.freq_error_hz)
        (fun v x -> { v with freq_error_hz = x });
      row "phase_noise_deg_rms" (fun p -> p.phase_noise_deg_rms) (fun v -> v.phase_noise_deg_rms)
        (fun v x -> { v with phase_noise_deg_rms = x }) ]

let lpf_rows =
  let row =
    lift (function Lpf p -> p | _ -> mismatch ()) (function Lpf_v v -> v | _ -> mismatch ())
      (fun _ v -> Lpf_v v)
  in
  Lpf.
    [ row "gain_db" (fun p -> p.gain_db) (fun v -> v.gain_db) (fun v x -> { v with gain_db = x });
      row "cutoff_hz" (fun p -> p.cutoff_hz) (fun v -> v.cutoff_hz)
        (fun v x -> { v with cutoff_hz = x });
      row "stopband_db" (fun p -> p.stopband_db) (fun v -> v.stopband_db)
        (fun v x -> { v with stopband_db = x });
      row "clock_spur_dbc" (fun p -> p.clock_spur_dbc) (fun v -> v.clock_spur_dbc)
        (fun v x -> { v with clock_spur_dbc = x });
      row "nf_db" (fun p -> p.nf_db) (fun v -> v.nf_db) (fun v x -> { v with nf_db = x }) ]

let adc_rows =
  let row =
    lift
      (function Adc { adc; _ } -> adc | _ -> mismatch ())
      (function Adc_v v -> v | _ -> mismatch ())
      (fun _ v -> Adc_v v)
  in
  Adc.
    [ row "offset_error_v" (fun p -> p.offset_error_v) (fun v -> v.offset_error_v)
        (fun v x -> { v with offset_error_v = x });
      row "inl_lsb" (fun p -> p.inl_lsb) (fun v -> v.inl_lsb) (fun v x -> { v with inl_lsb = x });
      row "dnl_lsb" (fun p -> p.dnl_lsb) (fun v -> v.dnl_lsb) (fun v x -> { v with dnl_lsb = x });
      row "nf_db" (fun p -> p.nf_db) (fun v -> v.nf_db) (fun v x -> { v with nf_db = x }) ]

let sigma_delta_rows =
  let row =
    lift
      (function Sd_adc { sd; _ } -> sd | _ -> mismatch ())
      (function Sd_v v -> v | _ -> mismatch ())
      (fun _ v -> Sd_v v)
  in
  Sigma_delta.
    [ row "leakage" (fun p -> p.leakage) (fun v -> v.leakage) (fun v x -> { v with leakage = x });
      row "gain_error" (fun p -> p.gain_error) (fun v -> v.gain_error)
        (fun v x -> { v with gain_error = x });
      row "comparator_offset_v" (fun p -> p.comparator_offset_v) (fun v -> v.comparator_offset_v)
        (fun v x -> { v with comparator_offset_v = x });
      row "nf_db" (fun p -> p.nf_db) (fun v -> v.nf_db) (fun v x -> { v with nf_db = x }) ]

let owners t = match t.block with Mix { lo_id; _ } -> [ t.id; lo_id ] | _ -> [ t.id ]

let rows t ~owner =
  match t.block with
  | Mix { lo_id; _ } when String.equal lo_id owner -> lo_rows
  | _ when not (String.equal t.id owner) -> []
  | Amp _ -> amp_rows
  | Mix _ -> mixer_rows
  | Lpf _ -> lpf_rows
  | Adc _ -> adc_rows
  | Sd_adc _ -> sigma_delta_rows

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
