(** Switched-capacitor low-pass (channel-select) filter (paper Table 1:
    pass-band gain, stop-band gain, cut-off frequency, dynamic range).

    Waveform model: two cascaded 2nd-order Butterworth sections at the
    instance's cut-off, times the pass-band gain, plus the clock spur the
    paper calls out for switched-capacitor filters ("tones at the integer
    multiples of the clock frequency") and output noise. *)

module Attr = Msoc_signal.Attr

type params = {
  gain_db : Param.t;           (** Pass-band gain. *)
  cutoff_hz : Param.t;
  stopband_db : Param.t;       (** Floor of the attenuation (negative dB,
                                   relative to pass band). *)
  clock_hz : float;
  clock_spur_dbc : Param.t;    (** Clock feedthrough relative to a 0 dBm
                                   pass-band carrier, negative dB. *)
  nf_db : Param.t;
}

type values = {
  gain_db : float;
  cutoff_hz : float;
  stopband_db : float;
  clock_spur_dbc : float;
  nf_db : float;
}

type instance

val default_params : clock_hz:float -> params
(** -2 dB ± 0.8 dB gain, 200 kHz ± 6% cut-off, -60 dB ± 4 dB stop band,
    -70 dBm ± 5 dB clock spur, 12 dB ± 1 dB NF. *)

val nominal_values : params -> values
val sample_values : params -> Msoc_util.Prng.t -> values
val instance : Context.t -> clock_hz:float -> values -> instance
val kernel : instance -> rng:Msoc_util.Prng.t -> samples:int -> float array -> unit
(** [kernel inst ~rng ~samples] computes the clock-spur track and draws the
    output-noise track once, and returns the block kernel: it filters a
    [samples]-long buffer in place at the simulation rate, from rest, and
    replays the same spur and noise on every call. *)

val magnitude_db : values -> Context.t -> freq:float -> float
(** Small-signal gain at a frequency, floored at the stop-band level —
    shared by the waveform model's validation and the attribute transform. *)

val transform : params -> Context.t -> Attr.t -> Attr.t
(** Attribute propagation: per-tone gain interval from corner evaluation of
    (gain, cutoff) tolerances, clock spur insertion, noise update. *)
