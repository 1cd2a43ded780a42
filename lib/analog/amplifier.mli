(** Low-noise amplifier block (paper Table 1: Gain, IIP3, DC Offset, 3rd
    Order Harmonic; we additionally carry a noise figure so Friis
    composition is exercised). *)

module Attr = Msoc_signal.Attr

type params = {
  gain_db : Param.t;
  iip3_dbm : Param.t;
  dc_offset_v : Param.t;
  nf_db : Param.t;
}

type values = {
  gain_db : float;
  iip3_dbm : float;
  dc_offset_v : float;
  nf_db : float;
}

type instance

val default_params : params
(** 20 dB ± 1 dB gain, +8 dBm ± 1.5 dB IIP3, 0 ± 5 mV offset,
    3 dB ± 0.5 dB NF. *)

val nominal_values : params -> values
val sample_values : params -> Msoc_util.Prng.t -> values
(** Defect-free manufacturing instance. *)

val instance : Context.t -> values -> instance
(** Fit the behavioural model (cubic nonlinearity, output noise sigma). *)

val kernel : instance -> rng:Msoc_util.Prng.t -> samples:int -> float array -> unit
(** [kernel inst ~rng ~samples] draws the output-noise track ([samples]
    Gaussians from [rng]) once and returns the block kernel: it maps a
    [samples]-long buffer of input volts to output volts in place, and
    replays the same noise on every call. *)

val saturation_input_v : instance -> float
(** Input peak voltage where the block hard-saturates. *)

val transform : params -> Context.t -> Attr.t -> Attr.t
(** Attribute-domain propagation with tolerance intervals: gain on every
    tone and spur, HD3 spur per tone, IM3 spurs for tone pairs, DC offset,
    Friis noise update. *)
