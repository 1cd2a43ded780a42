(** A signal path as an ordered, validated list of {!Stage.t}.

    The default topology is the paper's experimental receiver (Fig. 6):

    {v Amp -> Mixer (LO) -> LPF -> ADC -> digital filter v}

    but any stage list with exactly one trailing digitizer is accepted.
    This module owns the composed structure: the manufactured-part sampler,
    the waveform engine (a capture buffer at the simulation rate in,
    digitizer codes out), and the attribute-domain propagation that the
    test-synthesis core consumes. *)

module Attr = Msoc_signal.Attr

type t = private { ctx : Context.t; stages : Stage.t list }

type part = (string * Stage.values) list
(** Manufactured-part values keyed by stage id, in path order. *)

val create : ctx:Context.t -> Stage.t list -> t
(** Validates at construction: non-empty, unique stage (and LO) ids,
    exactly one digitizing stage and it comes last, decimation >= 1, and
    every LPF cutoff below the digitizer's output Nyquist rate.

    @raise Invalid_argument when a rule is violated. *)

val default_receiver : unit -> t
(** 8 MHz simulation rate; 1 MHz LO; 200 kHz channel LPF clocked at
    3.3 MHz; 14-bit ±1 V ADC at 1 MHz (decimation 8). *)

(** {1 Structure} *)

val digitizer : t -> Stage.t
val decimation : t -> int
val adc_rate_hz : t -> float

(** Output-rate cycles before a capture is trustworthy after a stimulus
    change: the sum of every stage's {!Stage.settle_cycles}, at least 1.
    The default receiver settles in 48 cycles. *)
val settle_cycles : t -> int
val find_stage : t -> string -> Stage.t option

val first_stage : t -> (Stage.block -> bool) -> Stage.t option
(** The first stage, in path order, whose block satisfies the predicate. *)

val first_mixer : t -> Stage.t option
val lo_freq_hz : t -> float option

val param : t -> stage:string -> name:string -> Param.t
(** Look up a toleranced parameter by owner id and conventional field name
    (one of the owner's {!Stage.rows}).  The owner id is a stage's id or
    the id of the LO a mixer stage owns.

    @raise Invalid_argument naming both if absent. *)

(** {1 De-embedding folds} *)

val gain_stages : t -> (Stage.t * Param.t) list
(** Stages that insert pass-band gain, with that gain, in path order. *)

val gains_before : t -> stage:string -> (Stage.t * Param.t) list
(** The {!gain_stages} strictly preceding [stage]. *)

val gains_from : t -> stage:string -> (Stage.t * Param.t) list
(** The {!gain_stages} from [stage] on, [stage] included. *)

val nominal_gain_db : (Stage.t * Param.t) list -> float
(** Sum of the nominal gains, accumulated in list order from [0.0]. *)

val nominal_path_gain_db : t -> float
(** [nominal_gain_db] of the {!gain_stages}. *)

val path_gain_interval_db : t -> Msoc_util.Interval.t
(** Pass-band path gain with all gain tolerances accumulated. *)

(** {1 Manufactured parts} *)

val nominal_part : t -> part

val sample_part : t -> Msoc_util.Prng.t -> part
(** Defect-free manufacturing instance of the whole path; draws happen in
    reverse stage order (mixer before LO within a stage), reproducing the
    historical record-expression sampler bit for bit. *)

val part_value : t -> part -> stage:string -> name:string -> float
val with_value : t -> part -> stage:string -> name:string -> float -> part
(** Read and functional update of one value, looked up as {!param} is.

    @raise Invalid_argument naming both if absent. *)

(** {1 Waveform engine} *)

type engine
(** An instantiated path for captures of a fixed length.  Immutable: it
    holds only the stages' input-independent tracks, so the [run_*]
    functions are pure functions of their input and one engine may be
    shared by several domains at once. *)

val engine : t -> part -> seed:int -> samples:int -> engine
(** Instantiate every stage for captures of [samples] simulation-rate
    samples, drawing every input-independent track once: each stage's
    noise, the LO waveform (phase plus wander), the LPF clock spur, the
    ADC's DNL table and conversion noise, the sigma-delta's input noise.
    All of it derives deterministically from [seed]. *)

val run_codes : engine -> float array -> int array
(** Input waveform at the simulation rate (volts at the primary input) to
    digitizer output codes at the decimated rate.

    Every run replays the engine's one noise realisation: filter,
    integrator and oscillator state start from rest, so a second run on
    the same engine equals the first run of a fresh engine built with the
    same arguments (a run does not continue the previous run's streams).

    @raise Invalid_argument unless the input has exactly [samples]
    samples. *)

val run_volts : engine -> float array -> float array
(** Same, with codes converted back to volts. *)

val run_analog : engine -> float array -> float array
(** The analog signal just before the digitizer, at the simulation rate
    (for probing).  The input is not modified. *)

(** {1 Attribute-domain propagation} *)

val stages : t -> Attr.t -> (string * Attr.t) list
(** Attribute propagation trace: [(lower-cased stage id, signal after the
    stage)] in path order, ending at the digital-filter input. *)

val at_filter_input : t -> Attr.t -> Attr.t
(** Final element of {!stages}. *)
