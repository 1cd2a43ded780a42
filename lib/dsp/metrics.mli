(** Standard dynamic-performance metrics computed from a power spectrum.

    These are the quantities the paper's analog tests ultimately evaluate:
    SNR and SFDR bound which digital-filter faults remain visible above the
    analog noise floor, THD/harmonic powers feed the IIP3 and compression
    measurements, and ENOB summarises the ADC. *)

type report = {
  fundamental_freq : float;
  fundamental_power_db : float;
  snr_db : float;        (** Signal power over in-band noise (excl. harmonics). *)
  thd_db : float;        (** Total harmonic distortion relative to the carrier
                             (negative when distortion is below the carrier). *)
  sfdr_db : float;       (** Carrier over worst spur. *)
  sinad_db : float;
  enob_bits : float;
}

val analyze : Spectrum.t -> report
(** Locate the fundamental as the strongest non-DC tone and derive all
    metrics, folding aliased harmonics back into the first Nyquist zone.
    The first 5 harmonics count as distortion. *)

val snr_multi_db : Spectrum.t -> signals:float list -> ?exclude:float list -> unit -> float
(** SNR of a multi-tone capture: signal power is the sum over [signals]
    tones; those tones, their harmonics, and any [exclude] frequencies
    (known spurs) are removed from the noise estimate. *)

val intermod3_products : f1:float -> f2:float -> float * float
(** The two third-order intermodulation frequencies [2 f1 - f2] and
    [2 f2 - f1] (absolute values). *)
