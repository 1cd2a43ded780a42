(** Second-order IIR (biquad) sections.

    Used as the continuous-time-equivalent model of the analog low-pass
    filter: a Butterworth prototype mapped through the bilinear transform at
    the waveform-simulation rate.  Cascading two sections yields the 4th-
    order channel-select response of the experimental path. *)

type coeffs = { b0 : float; b1 : float; b2 : float; a1 : float; a2 : float }
(** Direct-form-I coefficients with [a0] normalised to 1. *)

val butterworth_lowpass : sample_rate:float -> cutoff:float -> coeffs
(** 2nd-order Butterworth low-pass via bilinear transform with frequency
    pre-warping.  Requires [0 < cutoff < sample_rate / 2]. *)

val filter_into : coeffs -> float array -> unit
(** Filter a whole buffer in place, starting from rest (zero delay line):
    every call is independent of the previous one.  Allocation-free. *)

val cascade_magnitude_db : coeffs list -> sample_rate:float -> freq:float -> float
(** Magnitude response at [freq] Hz of the sections in series: the sum of
    their responses in dB. *)
