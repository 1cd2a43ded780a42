(** Test specifications: which parameter of which block must be verified,
    against what bounds (paper Table 1).

    The paper distinguishes three origins for block parameters (§4.2):
    direct projections of system requirements (cut-off frequency), partitions
    of a system parameter (gain, NF, DR), and non-idealities (P1dB, INL).
    The origin decides the translation method: partitioned parameters are
    {e composed}, the others are {e propagated}. *)

type block = Amp | Mixer | Lo | Lpf | Adc | Digital_filter

type kind =
  | Gain
  | Iip3
  | Dc_offset
  | Harmonic3
  | Lo_isolation
  | Noise_figure
  | P1db
  | Freq_error
  | Phase_noise
  | Passband_gain
  | Stopband_gain
  | Cutoff_freq
  | Dynamic_range
  | Offset_error
  | Inl
  | Dnl
  | Stuck_at_coverage   (** The digital filter is tested for structural faults. *)

type origin = System_projection | Partitioned | Non_ideality

type bound =
  | At_least of float                 (** Pass iff parameter >= value. *)
  | At_most of float                  (** Pass iff parameter <= value. *)
  | Within of { lo : float; hi : float }

type t = {
  block : block;    (** Block class — decides Table-1 membership. *)
  stage : string;   (** Stage id (or LO id) this spec belongs to. *)
  kind : kind;
  origin : origin;
  bound : bound;
  unit_label : string;
  source : Msoc_analog.Param.t option;
      (** The toleranced block parameter the spec bounds, whose population
          {!Plan.population_of_spec} models; [None] for HD3, dynamic range
          and stuck-at coverage. *)
}

val block_name : block -> string
val kind_name : kind -> string

val table1 : block -> kind list
(** The parameter set the paper's Table 1 assigns to each block. *)

val class_of_stage : Msoc_analog.Stage.t -> block
(** The block class of a stage (sigma-delta digitizers class as {!Adc}). *)

val gain_kind : block -> kind
(** The kind under which a block class's pass-band gain is spec'd
    ({!Passband_gain} for the LPF, {!Gain} otherwise). *)

val passes : bound -> float -> bool
val pp_bound : Format.formatter -> bound -> unit
val pp : Format.formatter -> t -> unit

val of_stage : Msoc_analog.Stage.t -> t list
(** The specs of one stage, its LO's included, as {!of_path} lists them. *)

val of_path : Msoc_analog.Path.t -> t list
(** Concrete spec list for a path: every Table 1 parameter of every stage
    with bounds derived from the nominal value and tolerance, plus the
    trailing digital-filter structural spec. *)
