(** Translation by composition (§4.2).

    Parameters that partition a system-level parameter (gain, noise figure,
    dynamic range) are measured once as a composite at the primary I/O.
    Because the composite is observed directly, its measurement accuracy is
    essentially the instrument's — the per-block tolerances no longer enter
    the reading.  The price is masking: individual errors can cancel at the
    measurement point, which is why composition must be accompanied by
    boundary-condition checks at the amplitude extremes (paper Fig. 3). *)

module Path = Msoc_analog.Path

type t = {
  name : string;
  covers : (Spec.block * Spec.kind) list;
  nominal : float;
  tolerance : float;       (** Accumulated tolerance of the composite. *)
  accuracy : Accuracy.t;   (** Accuracy of the composite measurement. *)
  unit_label : string;
}

val path_gain : Path.t -> t
(** Amp + Mixer + LPF pass-band gain, measured mid-range. *)

val noise_figure : Path.t -> t
(** Friis cascade of the four noisy blocks; tolerance from corner
    evaluation (all-NF-high/all-gain-low vs the opposite). *)

val dynamic_range : Path.t -> t
(** Usable input range: compression ceiling over noise floor. *)

type check_kind =
  | Saturation   (** High-amplitude: SNR must survive near the ceiling. *)
  | Signal_loss  (** Low-amplitude: the tone must stay detectable. *)
  | Mid_gain     (** The composite-gain measurement level itself. *)

type boundary_check = {
  kind : check_kind;
  description : string;
  stimulus_dbm : float;     (** Input level for the check. *)
  min_snr_db : float;       (** Pass criterion at the primary output. *)
}

val boundary_checks : Path.t -> test_level_dbm:float -> boundary_check list
(** The max- and min-amplitude SNR checks of Fig. 3: a saturation that
    composition masks fails the high-amplitude check; a gain deficit that
    composition masks fails the low-amplitude (signal-loss) check. *)

type saturation_report = {
  block : string;
  drive_dbm : float;        (** Worst-case signal level at the block input. *)
  limit_dbm : float;        (** The block's hard-saturation input level. *)
  headroom_db : float;
}

val saturation_analysis : Path.t -> input_dbm:float -> saturation_report list
(** Static headroom analysis at an input level, using worst-case (high)
    gains for everything upstream of each block. *)
