(** The paper's signal-attribute model.

    §4: "signal propagation is enabled through tracking amplitude, frequency,
    phase, DC level, noise level, and accuracy of signals as modules are
    traversed."  Every attribute that tolerances make uncertain is carried as
    an interval ({!Msoc_util.Interval.t}); the interval width {e is} the
    accuracy.  Spurs (harmonics, LO leakage, clock feedthrough,
    intermodulation products) are tracked as labelled tones so that the
    coverage analysis can tell fault-induced distortion from the distortion
    the defect-free analog path already produces. *)

module I = Msoc_util.Interval

type spur_origin =
  | Harmonic of int          (** n-th harmonic of a carried tone. *)
  | Intermod3                (** Third-order intermodulation product. *)
  | Lo_leakage               (** Mixer LO feedthrough. *)
  | Clock_spur               (** Switched-capacitor clock image. *)
  | Alias                    (** Sampling image from the ADC. *)

type tone = {
  freq_hz : I.t;
  power_dbm : I.t;
  phase_rad : I.t;
}

type spur = { origin : spur_origin; tone : tone }

type t = {
  tones : tone list;        (** Intentional test tones. *)
  spurs : spur list;        (** Non-ideal content of the defect-free path. *)
  dc_volts : I.t;           (** DC level. *)
  noise_dbm : float;        (** Integrated noise power in the analysis band. *)
}

val silence : ?noise_dbm:float -> unit -> t
(** No tones; default noise floor -174 dBm (thermal, 1 Hz). *)

val single_tone : ?noise_dbm:float -> freq_hz:float -> power_dbm:float -> unit -> t
val two_tone :
  ?noise_dbm:float -> f1_hz:float -> f2_hz:float -> power_dbm:float -> unit -> t
(** Equal per-tone power. *)

val total_tone_power_dbm : t -> float
(** Nominal sum of intentional tone powers; -400 when there are none. *)

val snr_db : t -> I.t
(** Total intentional tone power over noise (interval from power accuracy). *)

val freq_accuracy_hz : tone -> float
val power_accuracy_db : tone -> float

val add_spur : t -> spur_origin -> tone -> t
val map_tones : t -> f:(tone -> tone) -> t
(** Apply to intentional tones and spur tones alike. *)
