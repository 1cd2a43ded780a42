module Prng = Msoc_util.Prng
module Units = Msoc_util.Units
module Cic = Msoc_dsp.Cic

type params = {
  full_scale_v : float;
  leakage : Param.t;
  gain_error : Param.t;
  comparator_offset_v : Param.t;
  nf_db : Param.t;
}

type values = {
  leakage : float;
  gain_error : float;
  comparator_offset_v : float;
  nf_db : float;
}

type instance = {
  full_scale_v : float;
  retain : float;        (* 1 - leakage *)
  gain : float;          (* 1 + gain_error *)
  offset_v : float;
  noise_sigma_v : float;
}

let default_params ~full_scale_v : params =
  { full_scale_v;
    leakage = Param.make ~nominal:1e-4 ~tol:1e-4;
    gain_error = Param.make ~nominal:0.0 ~tol:5e-3;
    comparator_offset_v = Param.make ~nominal:0.0 ~tol:2e-3;
    nf_db = Param.make ~nominal:20.0 ~tol:2.0 }

let nominal_values (p : params) : values =
  { leakage = p.leakage.Param.nominal;
    gain_error = p.gain_error.Param.nominal;
    comparator_offset_v = p.comparator_offset_v.Param.nominal;
    nf_db = p.nf_db.Param.nominal }

let sample_values (p : params) g : values =
  { leakage = Float.max 0.0 (Param.sample p.leakage g);
    gain_error = Param.sample p.gain_error g;
    comparator_offset_v = Param.sample p.comparator_offset_v g;
    nf_db = Param.sample p.nf_db g }

let noise_sigma ctx ~nf_db =
  let bandwidth = ctx.Context.sim_rate_hz /. 2.0 in
  let factor = Float.max 0.0 (Units.power_ratio_of_db nf_db -. 1.0) in
  sqrt (Context.boltzmann *. ctx.Context.temperature_k *. bandwidth *. factor
        *. Units.reference_ohms)

let instance (p : params) ctx (v : values) =
  { full_scale_v = p.full_scale_v;
    retain = 1.0 -. v.leakage;
    gain = 1.0 +. v.gain_error;
    offset_v = v.comparator_offset_v;
    noise_sigma_v = noise_sigma ctx ~nf_db:v.nf_db }

(* Integrator rails, [Floatx.clamp ~lo:(-.rail) ~hi:rail] spelled out so
   the modulator loop boxes nothing. *)
let[@inline] clamp_rail ~rail x = if x < -.rail then -.rail else if x > rail then rail else x

(* CIFB-2 with feedback coefficients (1, 2): stable for inputs below
   ~0.85 full scale; state clipping models the integrator rails.  The
   integrator state lives in the run, so every call starts from rest.
   A run writes the input's bitstream into [bits]. *)
let modulate_into inst ~rng ~samples =
  let noise = Array.make samples 0.0 in
  Prng.fill_gaussian rng ~scale:inst.noise_sigma_v noise;
  let fs = inst.full_scale_v in
  let rail = 4.0 *. fs in
  fun input bits ->
    let v1 = ref 0.0 and v2 = ref 0.0 in
    for i = 0 to Array.length input - 1 do
      let x = input.(i) +. noise.(i) in
      let x = x /. fs in
      let y = if !v2 +. (inst.offset_v /. fs) >= 0.0 then 1.0 else -1.0 in
      v1 := clamp_rail ~rail ((inst.retain *. !v1) +. (inst.gain *. (x -. y)));
      v2 := clamp_rail ~rail ((inst.retain *. !v2) +. (inst.gain *. (!v1 -. (2.0 *. y))));
      bits.(i) <- int_of_float y
    done

(* A capture's bitstream is per-domain scratch, one buffer per length:
   the CIC decimator reads it and keeps nothing. *)
let bits_buffer = Msoc_util.Pool.per_domain (fun n -> Array.make n 0)

let kernel inst ~decimation ~rng ~samples =
  let run = modulate_into inst ~rng ~samples in
  fun input ->
    let bits = bits_buffer (Array.length input) in
    run input bits;
    Cic.process (Cic.create ~order:3 ~decimation) bits

let output_full_scale ~decimation = decimation * decimation * decimation

let theoretical_sqnr_db ~osr = (15.0 *. Float.log2 osr) -. 12.9 +. 1.76

(* ---- attribute-domain propagation ---- *)

module I = Msoc_util.Interval
module Attr = Msoc_signal.Attr

let full_scale_power_dbm (p : params) = Units.dbm_of_vpeak p.full_scale_v

let transform (p : params) ~adc_rate_hz ctx (s : Attr.t) =
  let fold (tn : Attr.tone) =
    { tn with Attr.freq_hz = Adc.alias_fold_interval ~rate:adc_rate_hz tn.Attr.freq_hz }
  in
  let folded = Attr.map_tones s ~f:fold in
  (* In-band quantization noise follows the 2nd-order shaping prediction at
     the loop's oversampling ratio; thermal noise is input-referred. *)
  let osr = Float.max 2.0 (ctx.Context.sim_rate_hz /. (2.0 *. ctx.Context.analysis_bw_hz)) in
  let quant_dbm = full_scale_power_dbm p -. theoretical_sqnr_db ~osr in
  let thermal_dbm =
    Units.dbm_of_watts
      (Context.boltzmann *. ctx.Context.temperature_k *. ctx.Context.analysis_bw_hz
      *. Float.max 1.0 (Units.power_ratio_of_db p.nf_db.Param.nominal))
  in
  let noise_w =
    Units.watts_of_dbm s.Attr.noise_dbm
    +. Units.watts_of_dbm quant_dbm
    +. Units.watts_of_dbm thermal_dbm
  in
  (* Integrator leakage moves shaped noise back in band; model its worst
     case as an SQNR degradation proportional to leakage * OSR. *)
  let leak_hi = I.(((Param.interval p.leakage).hi)) in
  let leak_penalty_db = 10.0 *. Float.log10 (1.0 +. (leak_hi *. osr)) in
  let noise_w = noise_w *. Units.power_ratio_of_db leak_penalty_db in
  { folded with
    Attr.dc_volts = I.add folded.Attr.dc_volts (Param.interval p.comparator_offset_v);
    Attr.noise_dbm = Units.dbm_of_watts noise_w }
