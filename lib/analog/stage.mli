(** First-class stage descriptor.

    A stage bundles everything the test-synthesis core needs to know about
    one block of a signal path: an id, the toleranced parameter set (one
    {!row} per {!Param.t}, addressable by conventional name), the block's
    attribute-domain transfer function, its waveform-engine block kernel,
    and its de-embedding info (pass-band gain, cascade noise figure,
    nonlinearity handle).  {!Path} holds an ordered list of these; [lib/core] folds over
    them generically instead of naming receiver fields. *)

module Prng = Msoc_util.Prng
module Attr = Msoc_signal.Attr

type block =
  | Amp of Amplifier.params
  | Mix of { lo_id : string; lo : Local_osc.params; mixer : Mixer.params }
      (** A mixer stage owns its local oscillator; [lo_id] names the LO in
          specs, plans and audit rows. *)
  | Lpf of Lpf.params
  | Adc of { adc : Adc.params; decimation : int }
  | Sd_adc of { sd : Sigma_delta.params; decimation : int }

type t = { id : string; block : block }

(** Manufactured-part values for one stage, mirroring [block]. *)
type values =
  | Amp_v of Amplifier.values
  | Mix_v of { lo_v : Local_osc.values; mixer_v : Mixer.values }
  | Lpf_v of Lpf.values
  | Adc_v of Adc.values
  | Sd_v of Sigma_delta.values

(** {1 Registry constructors} *)

val amp : ?id:string -> Amplifier.params -> t
(** Default id ["Amp"]. *)

val mixer : ?id:string -> ?lo_id:string -> lo:Local_osc.params -> Mixer.params -> t
(** Default ids ["Mixer"] / ["LO"]. *)

val lpf : ?id:string -> Lpf.params -> t
(** Default id ["LPF"]. *)

val adc : ?id:string -> decimation:int -> Adc.params -> t
(** Default id ["ADC"]. *)

val sigma_delta : ?id:string -> decimation:int -> Sigma_delta.params -> t
(** Sigma-delta digitizer; default id ["ADC"]. *)

(** {1 Structural queries} *)

val is_digitizer : t -> bool
val decimation : t -> int option

val settle_cycles : t -> int
(** Output-rate cycles for this block's transient to settle after a
    stimulus change (the channel filter dominates an ordinary path; a
    sigma-delta flushes three decimation periods of CIC state). *)

(** {1 Toleranced parameters} *)

(** One block parameter: its conventional name (["gain_db"],
    ["cutoff_hz"], ...), a reader of its toleranced value from a stage's
    block, and a reader and a functional writer of a manufactured part's
    value.  Each accepts only the block and the values of a stage whose
    {!rows} it came from. *)
type row = {
  name : string;
  param : block -> Param.t;
  get : values -> float;
  set : values -> float -> values;
}

val owners : t -> string list
(** The owner ids the stage's rows answer to: its id, then a mixer's
    [lo_id]. *)

val rows : t -> owner:string -> row list
(** The rows the owner id [owner] answers to in this stage: the block's own
    when [owner] is the stage's id, the LO's when it is a mixer's [lo_id],
    otherwise none.  The rows are static, one list per block, so a call
    allocates nothing. *)

val gain_param : t -> Param.t option
(** Pass-band gain this stage inserts ahead of what follows — the
    de-embedding handle.  [None] for digitizers. *)

val nf_param : t -> Param.t option

(** {1 Manufactured parts} *)

val nominal_values : t -> values

val sample_values : t -> Prng.t -> values
(** Draw order within a stage (LO before mixer) is fixed: it reproduces
    the historical receiver sampler bit-for-bit. *)

(** {1 Attribute-domain transfer} *)

val transfer : t -> ctx:Context.t -> adc_rate_hz:float -> Attr.t -> Attr.t
(** [adc_rate_hz] is the path's post-decimation output rate (used by
    digitizing stages for alias folding; ignored by analog ones). *)

(** {1 Waveform engine} *)

(** The runtime form of one stage: a block kernel over a whole capture
    buffer.  Its input-independent tracks (noise, LO waveform, clock spur,
    DNL table) are drawn when the stage is instantiated; its filter,
    integrator and phase state live inside each call.  A runtime is
    therefore immutable — every call replays the same tracks and is a pure
    function of its input, so one runtime may serve several domains at
    once. *)
type runtime =
  | Analog of (float array -> unit)
      (** Transforms a buffer of [samples] volts in place. *)
  | Digitize of { capture : float array -> int array; volts_per_code : float }
      (** [capture] maps [samples] volts at the simulation rate to codes
          at the decimated rate; a code [c] reads as
          [float_of_int c *. volts_per_code] volts. *)

val instantiate : t -> ctx:Context.t -> values -> root:Prng.t -> samples:int -> runtime
(** Build the runtime form of one stage for captures of [samples]
    simulation-rate samples.  PRNG streams are split off [root]
    sequentially in stage order (LO before mixer, ADC build stream before
    its runtime stream) — the exact split sequence of the historical
    engine, so seeded waveforms stay bit-identical.

    @raise Invalid_argument if [values] does not match the stage's block. *)
