(** Shared simulation and analysis context for the analog path. *)

type t = {
  sim_rate_hz : float;      (** Time-domain simulation sample rate. *)
  analysis_bw_hz : float;   (** Bandwidth over which noise powers are
                                 integrated in the attribute domain. *)
  temperature_k : float;
}

val default : t
(** 8 MHz simulation rate, 250 kHz analysis bandwidth, 290 K; another
    context is [{ default with ... }]. *)

val thermal_noise_dbm : t -> float
(** kTB in the analysis bandwidth, dBm. *)

val boltzmann : float
