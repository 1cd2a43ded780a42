module Param = Msoc_analog.Param
module Path = Msoc_analog.Path
module Stage = Msoc_analog.Stage
module Amplifier = Msoc_analog.Amplifier
module Mixer_blk = Msoc_analog.Mixer
module Local_osc = Msoc_analog.Local_osc
module Lpf_blk = Msoc_analog.Lpf
module Adc_blk = Msoc_analog.Adc
module Sigma_delta = Msoc_analog.Sigma_delta

type block = Amp | Mixer | Lo | Lpf | Adc | Digital_filter

type kind =
  | Gain
  | Iip3
  | Dc_offset
  | Harmonic3
  | Lo_isolation
  | Noise_figure
  | P1db
  | Freq_error
  | Phase_noise
  | Passband_gain
  | Stopband_gain
  | Cutoff_freq
  | Dynamic_range
  | Offset_error
  | Inl
  | Dnl
  | Stuck_at_coverage

type origin = System_projection | Partitioned | Non_ideality

type bound =
  | At_least of float
  | At_most of float
  | Within of { lo : float; hi : float }

type t = {
  block : block;
  stage : string;
  kind : kind;
  origin : origin;
  bound : bound;
  unit_label : string;
  source : Param.t option;
}

let block_name = function
  | Amp -> "Amp"
  | Mixer -> "Mixer"
  | Lo -> "LO"
  | Lpf -> "LPF"
  | Adc -> "ADC"
  | Digital_filter -> "Digital Filter"

let kind_name = function
  | Gain -> "Gain"
  | Iip3 -> "IIP3"
  | Dc_offset -> "DC Offset"
  | Harmonic3 -> "3rd Order Harmonic"
  | Lo_isolation -> "LO Isolation"
  | Noise_figure -> "NF"
  | P1db -> "P1dB"
  | Freq_error -> "Frequency Error"
  | Phase_noise -> "Phase Noise"
  | Passband_gain -> "G_passband"
  | Stopband_gain -> "G_stopband"
  | Cutoff_freq -> "f_c"
  | Dynamic_range -> "DR"
  | Offset_error -> "Offset Error"
  | Inl -> "INL"
  | Dnl -> "DNL"
  | Stuck_at_coverage -> "Stuck-at Coverage"

let origin_name = function
  | System_projection -> "system projection"
  | Partitioned -> "partitioned"
  | Non_ideality -> "non-ideality"

(* Paper Table 1. *)
let table1 = function
  | Amp -> [ Gain; Iip3; Dc_offset; Harmonic3 ]
  | Mixer -> [ Gain; Iip3; Lo_isolation; Noise_figure; P1db ]
  | Lo -> [ Freq_error; Phase_noise ]
  | Lpf -> [ Passband_gain; Stopband_gain; Cutoff_freq; Dynamic_range ]
  | Adc -> [ Offset_error; Inl; Dnl; Noise_figure; Dynamic_range ]
  | Digital_filter -> [ Stuck_at_coverage ]

let class_of_stage (s : Stage.t) =
  match s.Stage.block with
  | Stage.Amp _ -> Amp
  | Stage.Mix _ -> Mixer
  | Stage.Lpf _ -> Lpf
  | Stage.Adc _ | Stage.Sd_adc _ -> Adc

let gain_kind = function
  | Lpf -> Passband_gain
  | Amp | Mixer | Lo | Adc | Digital_filter -> Gain

let passes bound value =
  match bound with
  | At_least threshold -> value >= threshold
  | At_most threshold -> value <= threshold
  | Within { lo; hi } -> value >= lo && value <= hi

let pp_bound ppf = function
  | At_least v -> Format.fprintf ppf ">= %g" v
  | At_most v -> Format.fprintf ppf "<= %g" v
  | Within { lo; hi } -> Format.fprintf ppf "in [%g, %g]" lo hi

let pp ppf t =
  Format.fprintf ppf "%s.%s (%s) %a %s" t.stage (kind_name t.kind)
    (origin_name t.origin) pp_bound t.bound t.unit_label

let within (p : Param.t) =
  Within { lo = p.Param.nominal -. p.Param.tol; hi = p.Param.nominal +. p.Param.tol }

let at_least (p : Param.t) = At_least (p.Param.nominal -. p.Param.tol)
let at_most (p : Param.t) = At_most (p.Param.nominal +. p.Param.tol)

let of_stage (s : Stage.t) =
  let stage = s.Stage.id in
  (* [spec] bounds no toleranced parameter; [param] bounds [p], its source,
     by [bound_of p] *)
  let spec block kind origin bound unit_label =
    { block; stage; kind; origin; bound; unit_label; source = None }
  in
  let param ?(stage = stage) block kind origin bound_of p unit_label =
    { block; stage; kind; origin; bound = bound_of p; unit_label; source = Some p }
  in
  match s.Stage.block with
  | Stage.Amp amp ->
    [ param Amp Gain Partitioned within amp.Amplifier.gain_db "dB";
      param Amp Iip3 Non_ideality at_least amp.Amplifier.iip3_dbm "dBm";
      param Amp Dc_offset Non_ideality within amp.Amplifier.dc_offset_v "V";
      spec Amp Harmonic3 Non_ideality
        (At_most
           (* HD3 bound implied by the IIP3 bound at the standard test level. *)
           (-2.0
           *. (amp.Amplifier.iip3_dbm.Param.nominal -. amp.Amplifier.iip3_dbm.Param.tol)))
        "dBc" ]
  | Stage.Mix { lo_id; lo; mixer } ->
    [ param Mixer Gain Partitioned within mixer.Mixer_blk.gain_db "dB";
      param Mixer Iip3 Non_ideality at_least mixer.Mixer_blk.iip3_dbm "dBm";
      param Mixer Lo_isolation Non_ideality at_least mixer.Mixer_blk.lo_isolation_db "dB";
      param Mixer Noise_figure Partitioned at_most mixer.Mixer_blk.nf_db "dB";
      param Mixer P1db Non_ideality at_least mixer.Mixer_blk.p1db_dbm "dBm";
      param ~stage:lo_id Lo Freq_error System_projection within lo.Local_osc.freq_error_hz "Hz";
      param ~stage:lo_id Lo Phase_noise Non_ideality at_most lo.Local_osc.phase_noise_deg_rms
        "deg rms" ]
  | Stage.Lpf lpf ->
    [ param Lpf Passband_gain Partitioned within lpf.Lpf_blk.gain_db "dB";
      param Lpf Stopband_gain System_projection at_most lpf.Lpf_blk.stopband_db "dB";
      param Lpf Cutoff_freq System_projection within lpf.Lpf_blk.cutoff_hz "Hz";
      spec Lpf Dynamic_range Partitioned (At_least 60.0) "dB" ]
  | Stage.Adc { adc; _ } ->
    [ param Adc Offset_error Non_ideality within adc.Adc_blk.offset_error_v "V";
      param Adc Inl Non_ideality at_most adc.Adc_blk.inl_lsb "LSB";
      param Adc Dnl Non_ideality at_most adc.Adc_blk.dnl_lsb "LSB";
      param Adc Noise_figure Partitioned at_most adc.Adc_blk.nf_db "dB";
      spec Adc Dynamic_range Partitioned (At_least 60.0) "dB" ]
  | Stage.Sd_adc { sd; _ } ->
    [ param Adc Offset_error Non_ideality within sd.Sigma_delta.comparator_offset_v "V";
      param Adc Noise_figure Partitioned at_most sd.Sigma_delta.nf_db "dB";
      spec Adc Dynamic_range Partitioned (At_least 60.0) "dB" ]

let of_path (path : Path.t) =
  List.concat_map of_stage path.Path.stages
  @ [ { block = Digital_filter;
        stage = block_name Digital_filter;
        kind = Stuck_at_coverage;
        origin = System_projection;
        bound = At_least 0.8;
        unit_label = "fraction";
        source = None } ]
