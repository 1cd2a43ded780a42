type t = {
  sim_rate_hz : float;
  analysis_bw_hz : float;
  temperature_k : float;
}

let boltzmann = 1.380649e-23

let default = { sim_rate_hz = 8e6; analysis_bw_hz = 250e3; temperature_k = 290.0 }

let thermal_noise_dbm t =
  Msoc_util.Units.dbm_of_watts (boltzmann *. t.temperature_k *. t.analysis_bw_hz)
