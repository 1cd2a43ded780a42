(** Local oscillator (paper Table 1: Frequency Error, Phase Noise).

    The waveform model is a unit-amplitude cosine whose phase advances at
    the (error-afflicted) carrier rate plus an Ornstein–Uhlenbeck phase
    perturbation — a stationary close-in phase-noise skirt whose RMS equals
    the specified value. *)

type params = {
  freq_hz : float;              (** Nominal carrier. *)
  freq_error_hz : Param.t;      (** Additive frequency error (nominal 0). *)
  phase_noise_deg_rms : Param.t;
  drive_dbm : float;            (** LO drive power (sets mixer leakage). *)
}

type values = {
  freq_hz : float;
  freq_error_hz : float;
  phase_noise_deg_rms : float;
  drive_dbm : float;
}

val default_params : freq_hz:float -> params
(** ±200 Hz frequency error, 0.03° ± 0.01° RMS phase noise, +7 dBm drive. *)

val nominal_values : params -> values
val sample_values : params -> Msoc_util.Prng.t -> values

val track : Context.t -> values -> rng:Msoc_util.Prng.t -> samples:int -> float array
(** The first [samples] unit-amplitude LO samples at the simulation rate,
    from phase 0 and zero wander; the phase noise draws one Gaussian per
    sample from [rng]. *)

val freq_interval_hz : params -> Msoc_util.Interval.t
(** Carrier frequency with its error tolerance. *)
