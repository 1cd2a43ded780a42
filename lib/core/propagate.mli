(** Translation by propagation (§4.2, Fig. 4).

    Block-specific parameters with no system-level counterpart (mixer IIP3,
    mixer P1dB, filter cut-off, ...) are measured at the primary output:
    the stimulus is propagated forward through the preceding blocks, the
    response is de-embedded through the following ones.  Each nominal gain
    assumed during de-embedding contributes its tolerance to the
    measurement error; the {e adaptive} strategy replaces groups of nominal
    gains with previously measured composites (path gain, LO frequency) and
    thereby shrinks the budget — Fig. 4's
    [IIP3 = (3X - Y)/2 - G_path + G_A] formulation. *)

module Path = Msoc_analog.Path
module Attr = Msoc_signal.Attr

type strategy = Nominal_gains | Adaptive

type t = {
  spec : Spec.t;
  strategy : strategy;
  stimulus : Attr.t;              (** Representative stimulus at the
                                      primary input. *)
  procedure : string;             (** Human-readable measurement recipe. *)
  formula : string;               (** De-embedding formula. *)
  budget : Accuracy.t;            (** Error budget of the computed value. *)
  prerequisites : string list;    (** Composites that must be measured
                                      first (adaptive only). *)
}

val err : t -> float

val parameter_name : t -> string
(** ["<stage id> <kind>"], e.g. ["Mixer IIP3"] — the key under which the
    measurement appears in the {!Audit} trail.  Stage ids keep the key
    unique even when a topology carries two blocks of the same class. *)

val strategy_name : strategy -> string
(** Worst-case measurement error (the "Err" of Table 2's threshold
    columns). *)

val standard_test_level_dbm : float
(** Per-tone stimulus level used by the default measurements (-35 dBm). *)

val mixer_iip3 : Path.t -> strategy:strategy -> t

val mixer_iip3_trial : Path.t -> strategy:strategy -> Msoc_util.Prng.t -> int -> float
(** Fig. 4's error model as one Monte-Carlo trial, the [~f] of
    {!Msoc_stat.Monte_carlo.sample_array_pooled}: draw the amp, mixer and
    LPF gains and the true mixer IIP3 of a part within their tolerances
    (in that order, from the trial's stream), de-embed the IIP3 from the
    cascade observable with [strategy], and return the estimate minus the
    truth.  Reads the [Amp], [Mixer] and [LPF] stages of a default-style
    receiver.  Every error lies within [err (mixer_iip3 path ~strategy)]. *)

val figure4_seed : int
(** The canonical seed of Fig. 4's Monte-Carlo study. *)

val mixer_p1db : Path.t -> strategy:strategy -> t
val lpf_cutoff : Path.t -> strategy:strategy -> t
val amp_iip3 : Path.t -> strategy:strategy -> t
val lo_freq_error : Path.t -> t
(** Read the LO leakage spur at the output — itself a high-accuracy
    measurement and the adaptive prerequisite for {!lpf_cutoff}. *)

val mixer_lo_isolation : Path.t -> strategy:strategy -> t
val adc_inl : Path.t -> t
(** INL bounded through the carrier-relative harmonic spur power. *)

val all_for_path : Path.t -> strategy:strategy -> t list
(** Every propagated measurement the topology supports, in the fixed
    historical order; builders whose stage is absent are skipped (no
    amp IIP3 in an amp-bypass path, no INL for a sigma-delta digitizer). *)

val pp : Format.formatter -> t -> unit
