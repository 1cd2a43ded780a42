(** Down-conversion mixer (paper Table 1: Gain, IIP3, LO Isolation, NF,
    1 dB Compression Point). *)

module Attr = Msoc_signal.Attr

type params = {
  gain_db : Param.t;        (** Conversion gain. *)
  iip3_dbm : Param.t;
  lo_isolation_db : Param.t; (** LO-to-output isolation (positive dB). *)
  nf_db : Param.t;
  p1db_dbm : Param.t;       (** Input-referred 1 dB compression point. *)
}

type values = {
  gain_db : float;
  iip3_dbm : float;
  lo_isolation_db : float;
  nf_db : float;
  p1db_dbm : float;
}

type instance

val default_params : params
(** 8 dB ± 1 dB conversion gain, +14 dBm ± 1.5 dB IIP3, 40 dB ± 3 dB LO
    isolation, 10 dB ± 1 dB NF, +2 dBm ± 1 dB P1dB. *)

val nominal_values : params -> values
val sample_values : params -> Msoc_util.Prng.t -> values
val instance : Context.t -> values -> lo_drive_dbm:float -> instance

val kernel :
  instance -> lo:float array -> rng:Msoc_util.Prng.t -> samples:int -> float array -> unit
(** [kernel inst ~lo ~rng ~samples] draws the output-noise track once and
    returns the block kernel over a [samples]-long buffer, in place: each
    nonlinearly-processed input sample is multiplied by the matching
    sample of the LO track [lo] (doubled so the difference-frequency
    component carries the full conversion gain), plus LO feedthrough and
    noise.  Every call replays the same LO and noise tracks. *)

val saturation_input_v : instance -> float

val transform :
  params -> lo:Local_osc.params -> Context.t -> Attr.t -> Attr.t
(** Attribute propagation: every tone/spur is translated to
    [|f - f_lo|] with the LO frequency-error interval folded into the
    frequency accuracy, conversion gain applied, IM3 spurs added, the LO
    leakage spur inserted, and noise updated via Friis. *)
