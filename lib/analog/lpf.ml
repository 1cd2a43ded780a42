module I = Msoc_util.Interval
module Units = Msoc_util.Units
module Prng = Msoc_util.Prng
module Attr = Msoc_signal.Attr
module Biquad = Msoc_dsp.Biquad

type params = {
  gain_db : Param.t;
  cutoff_hz : Param.t;
  stopband_db : Param.t;
  clock_hz : float;
  clock_spur_dbc : Param.t;
  nf_db : Param.t;
}

type values = {
  gain_db : float;
  cutoff_hz : float;
  stopband_db : float;
  clock_spur_dbc : float;
  nf_db : float;
}

type instance = {
  section : Biquad.coeffs;  (* each of the two cascaded sections *)
  gain_lin : float;
  spur_vpeak : float;
  spur_step_rad : float;
  noise_sigma_v : float;
}

let default_params ~clock_hz : params =
  { gain_db = Param.make ~nominal:(-2.0) ~tol:0.8;
    cutoff_hz = Param.make ~nominal:200e3 ~tol:12e3;
    stopband_db = Param.make ~nominal:(-60.0) ~tol:4.0;
    clock_hz;
    clock_spur_dbc = Param.make ~nominal:(-70.0) ~tol:5.0;
    nf_db = Param.make ~nominal:12.0 ~tol:1.0 }

let nominal_values (p : params) : values =
  { gain_db = p.gain_db.Param.nominal;
    cutoff_hz = p.cutoff_hz.Param.nominal;
    stopband_db = p.stopband_db.Param.nominal;
    clock_spur_dbc = p.clock_spur_dbc.Param.nominal;
    nf_db = p.nf_db.Param.nominal }

let sample_values (p : params) g : values =
  { gain_db = Param.sample p.gain_db g;
    cutoff_hz = Param.sample p.cutoff_hz g;
    stopband_db = Param.sample p.stopband_db g;
    clock_spur_dbc = Param.sample p.clock_spur_dbc g;
    nf_db = Param.sample p.nf_db g }

let noise_sigma ctx ~gain_db ~nf_db =
  let bandwidth = ctx.Context.sim_rate_hz /. 2.0 in
  let factor = Float.max 0.0 (Units.power_ratio_of_db nf_db -. 1.0) in
  let gain = Units.power_ratio_of_db gain_db in
  sqrt (Context.boltzmann *. ctx.Context.temperature_k *. bandwidth *. factor *. gain
        *. Units.reference_ohms)

let instance ctx ~clock_hz (v : values) =
  let coeffs =
    Biquad.butterworth_lowpass ~sample_rate:ctx.Context.sim_rate_hz ~cutoff:v.cutoff_hz
  in
  (* Spur amplitude referenced to a 0 dBm carrier in the pass band. *)
  let spur_vpeak = Units.vpeak_of_dbm v.clock_spur_dbc in
  { section = coeffs;
    gain_lin = Units.voltage_ratio_of_db v.gain_db;
    spur_vpeak;
    spur_step_rad = Units.two_pi *. clock_hz /. ctx.Context.sim_rate_hz;
    noise_sigma_v = noise_sigma ctx ~gain_db:v.gain_db ~nf_db:v.nf_db }

(* Two input-independent tracks: the clock spur (from phase 0) and the
   output noise.  They stay separate so each output sample keeps the
   association [(gain * filtered + spur) + noise]. *)
let kernel inst ~rng ~samples =
  let spur = Array.make samples 0.0 in
  let phase = ref 0.0 in
  for i = 0 to samples - 1 do
    spur.(i) <- inst.spur_vpeak *. sin !phase;
    phase := Float.rem (!phase +. inst.spur_step_rad) Units.two_pi
  done;
  let noise = Array.make samples 0.0 in
  Prng.fill_gaussian rng ~scale:inst.noise_sigma_v noise;
  let gain = inst.gain_lin in
  fun buf ->
    Biquad.filter_into inst.section buf;
    Biquad.filter_into inst.section buf;
    for i = 0 to Array.length buf - 1 do
      buf.(i) <- (gain *. buf.(i)) +. spur.(i) +. noise.(i)
    done

let magnitude_db (v : values) ctx ~freq =
  let coeffs =
    Biquad.butterworth_lowpass ~sample_rate:ctx.Context.sim_rate_hz ~cutoff:v.cutoff_hz
  in
  let rolloff =
    Biquad.cascade_magnitude_db [ coeffs; coeffs ] ~sample_rate:ctx.Context.sim_rate_hz ~freq
  in
  v.gain_db +. Float.max rolloff v.stopband_db

(* ---- attribute-domain propagation ---- *)

let gain_interval (p : params) ctx ~freq_i =
  (* Corner evaluation over (gain, cutoff, frequency) tolerances: the
     response is monotone in each of them, so corners bound the range. *)
  let corners_cut = [ p.cutoff_hz.Param.nominal -. p.cutoff_hz.Param.tol;
                      p.cutoff_hz.Param.nominal +. p.cutoff_hz.Param.tol ] in
  let corners_gain = [ p.gain_db.Param.nominal -. p.gain_db.Param.tol;
                       p.gain_db.Param.nominal +. p.gain_db.Param.tol ] in
  let corners_freq = [ I.(freq_i.lo); I.(freq_i.hi) ] in
  let values =
    List.concat_map
      (fun cutoff ->
        List.concat_map
          (fun gain ->
            List.map
              (fun freq ->
                magnitude_db
                  { gain_db = gain;
                    cutoff_hz = cutoff;
                    stopband_db = p.stopband_db.Param.nominal;
                    clock_spur_dbc = p.clock_spur_dbc.Param.nominal;
                    nf_db = p.nf_db.Param.nominal }
                  ctx ~freq)
              corners_freq)
          corners_gain)
      corners_cut
  in
  let lo = List.fold_left Float.min infinity values in
  let hi = List.fold_left Float.max neg_infinity values in
  I.make ~lo ~hi

let transform (p : params) ctx (s : Attr.t) =
  let shape (tn : Attr.tone) =
    let g = gain_interval p ctx ~freq_i:tn.Attr.freq_hz in
    { tn with Attr.power_dbm = I.add tn.Attr.power_dbm g }
  in
  let shaped = Attr.map_tones s ~f:shape in
  let with_spur =
    Attr.add_spur shaped Attr.Clock_spur
      { Attr.freq_hz = I.point p.clock_hz;
        power_dbm = Param.interval p.clock_spur_dbc;
        phase_rad = I.point 0.0 }
  in
  let gain = Units.power_ratio_of_db p.gain_db.Param.nominal in
  let added =
    Context.boltzmann *. ctx.Context.temperature_k *. ctx.Context.analysis_bw_hz
    *. Float.max 0.0 (Units.power_ratio_of_db p.nf_db.Param.nominal -. 1.0)
    *. gain
  in
  { with_spur with
    Attr.noise_dbm =
      Units.dbm_of_watts ((Units.watts_of_dbm s.Attr.noise_dbm *. gain) +. added) }
