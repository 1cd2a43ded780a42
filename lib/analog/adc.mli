(** Analog-to-digital converter (paper Table 1: Offset Error, INL, DNL, NF,
    DR).

    Waveform model: sample-and-hold decimation from the simulation rate,
    additive offset, a smooth INL bow plus per-code DNL perturbations baked
    into a transfer table at instance creation, round-to-nearest
    quantization and saturation at the rails. *)

module Attr = Msoc_signal.Attr

type inl_shape =
  | S_curve  (** Odd-symmetric (third-harmonic-dominant) curvature — the
                 default; its distortion stays at odd-order frequencies. *)
  | Bow      (** Even-symmetric mid-scale bow (second-harmonic-dominant),
                 the classic shape the code-density test characterises. *)

type params = {
  bits : int;
  full_scale_v : float;       (** Input range is [±full_scale_v]. *)
  offset_error_v : Param.t;
  inl_lsb : Param.t;          (** Peak INL, in LSB. *)
  inl_shape : inl_shape;
  dnl_lsb : Param.t;          (** RMS per-code step error, in LSB. *)
  nf_db : Param.t;            (** Thermal noise added before quantization. *)
}

type values = {
  offset_error_v : float;
  inl_lsb : float;
  dnl_lsb : float;
  nf_db : float;
}

type instance

val default_params : params
(** 14 bits, ±1 V, 0 ± 2 mV offset, 1.5 ± 0.75 LSB INL, 0.4 ± 0.2 LSB DNL,
    25 dB ± 2 dB NF. *)

val nominal_values : params -> values
val sample_values : params -> Msoc_util.Prng.t -> values

val instance : params -> Context.t -> values -> rng:Msoc_util.Prng.t -> instance
(** [rng] fixes the DNL realisation of this part. *)

val lsb_volts : params -> float

val kernel :
  instance -> decimation:int -> rng:Msoc_util.Prng.t -> samples:int -> float array -> int array
(** [kernel inst ~decimation ~rng ~samples] draws the conversion-noise
    track ([samples / decimation] Gaussians from [rng]) once and returns
    the capture kernel: sample-and-hold every [decimation]-th sample of a
    [samples]-long input and convert it to a signed code (saturating at the
    rails), replaying the same noise on every call. *)

val ideal_snr_db : params -> float
(** 6.02 N + 1.76. *)

val alias_fold_interval : rate:float -> Msoc_util.Interval.t -> Msoc_util.Interval.t
(** Fold a frequency interval into the first Nyquist zone of [rate] —
    shared by every digitizing stage's attribute transform. *)

val transform : params -> adc_rate_hz:float -> Context.t -> Attr.t -> Attr.t
(** Attribute propagation: alias-fold every frequency into the first
    Nyquist zone of the converter rate, add offset to the DC level, add
    quantization + thermal noise, and insert the INL-induced harmonic
    spurs of the strongest tone. *)
