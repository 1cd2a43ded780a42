module I = Msoc_util.Interval
module Units = Msoc_util.Units
module Prng = Msoc_util.Prng

type params = {
  freq_hz : float;
  freq_error_hz : Param.t;
  phase_noise_deg_rms : Param.t;
  drive_dbm : float;
}

type values = {
  freq_hz : float;
  freq_error_hz : float;
  phase_noise_deg_rms : float;
  drive_dbm : float;
}

let default_params ~freq_hz : params =
  { freq_hz;
    freq_error_hz = Param.make ~nominal:0.0 ~tol:200.0;
    phase_noise_deg_rms = Param.make ~nominal:0.03 ~tol:0.01;
    drive_dbm = 7.0 }

let nominal_values (p : params) : values =
  { freq_hz = p.freq_hz;
    freq_error_hz = p.freq_error_hz.Param.nominal;
    phase_noise_deg_rms = p.phase_noise_deg_rms.Param.nominal;
    drive_dbm = p.drive_dbm }

let sample_values (p : params) g : values =
  { freq_hz = p.freq_hz;
    freq_error_hz = Param.sample p.freq_error_hz g;
    phase_noise_deg_rms = Param.sample p.phase_noise_deg_rms g;
    drive_dbm = p.drive_dbm }

let actual_freq_hz (v : values) = v.freq_hz +. v.freq_error_hz

(* Ornstein–Uhlenbeck: wander' = rho wander + sigma sqrt(1-rho^2) xi, which
   is stationary with RMS sigma; rho sets the skirt bandwidth.  The track
   array first receives the innovations, one Gaussian per sample, then is
   overwritten in place by the waveform. *)
let track ctx (v : values) ~rng ~samples =
  let step_rad = Units.two_pi *. actual_freq_hz v /. ctx.Context.sim_rate_hz in
  let sigma_rad = Units.radians_of_degrees v.phase_noise_deg_rms in
  let rho = 0.999 in
  let out = Array.make samples 0.0 in
  Prng.fill_gaussian rng ~scale:(sigma_rad *. sqrt (1.0 -. (rho *. rho))) out;
  let phase = ref 0.0 and wander = ref 0.0 in
  for i = 0 to samples - 1 do
    let innovation = out.(i) in
    out.(i) <- cos (!phase +. !wander);
    phase := Float.rem (!phase +. step_rad) Units.two_pi;
    wander := (rho *. !wander) +. innovation
  done;
  out

let freq_interval_hz (p : params) =
  I.add (I.point p.freq_hz) (Param.interval p.freq_error_hz)
