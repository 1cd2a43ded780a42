(** Second-order single-bit sigma–delta modulator.

    The paper names the ΣΔ modulator as the other common analog/digital
    interface module ("…connected to a digital filter through an interface
    module such as an ADC or a ΣΔ modulator").  This is a behavioural
    CIFB-2 loop — two delaying integrators, a one-bit quantizer, feedback
    coefficients (1, 2) — with the non-idealities that matter for test:
    integrator leakage, integrator gain error, comparator offset and input
    noise, each toleranced.  Decimation to output codes goes through a
    {!Msoc_dsp.Cic} sinc^3 filter. *)

type params = {
  full_scale_v : float;          (** Feedback DAC levels are ±full_scale. *)
  leakage : Param.t;             (** Integrator loss per sample (0 ideal). *)
  gain_error : Param.t;          (** Relative integrator gain error. *)
  comparator_offset_v : Param.t;
  nf_db : Param.t;               (** Input-referred noise. *)
}

type values = {
  leakage : float;
  gain_error : float;
  comparator_offset_v : float;
  nf_db : float;
}

type instance

val default_params : full_scale_v:float -> params
(** Leakage 1e-4 ± 1e-4, gain error 0 ± 0.5%, offset 0 ± 2 mV,
    NF 20 ± 2 dB. *)

val nominal_values : params -> values
val sample_values : params -> Msoc_util.Prng.t -> values
val instance : params -> Context.t -> values -> instance

val kernel :
  instance -> decimation:int -> rng:Msoc_util.Prng.t -> samples:int -> float array -> int array
(** [kernel inst ~decimation ~rng ~samples] draws the input-noise track
    ([samples] Gaussians from [rng]) once and returns the capture kernel:
    the loop takes a [samples]-long buffer of input volts at the
    simulation rate to its ±1 bitstream, integrators starting from rest
    and the same noise replayed on every call, and a fresh sinc^3 CIC
    decimator follows.  Output codes are signed with full scale ~=
    [decimation ^ 3 / 4] (the CIC gain on a ±1 stream divided by the
    modulator's stable range).  Inputs beyond ~0.85 of full scale
    overload the loop (as real 2nd-order loops do). *)

val output_full_scale : decimation:int -> int
(** Code magnitude corresponding to a full-scale input after {!kernel}. *)

val theoretical_sqnr_db : osr:float -> float
(** Ideal 2nd-order prediction: 15 log2(OSR) - 12.9 + 1.76 dB. *)

val transform :
  params -> adc_rate_hz:float -> Context.t -> Msoc_signal.Attr.t -> Msoc_signal.Attr.t
(** Attribute propagation: alias-fold every frequency into the first
    Nyquist zone of the output rate, add the comparator offset to the DC
    level, and add shaped quantization noise (2nd-order SQNR at the
    analysis-bandwidth OSR, degraded by worst-case integrator leakage)
    plus input-referred thermal noise. *)
