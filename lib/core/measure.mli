(** Waveform-level execution of the synthesised measurements.

    {!Propagate} builds the measurement {e procedures} and their error
    budgets; this module is the virtual mixed-signal tester that runs them
    against a manufactured part: it applies the stimuli at the primary
    input of a {!Msoc_analog.Path.engine}, digitises at the primary output
    ("mixed-signal testers digitize analog signals in order to make
    measurements", §5), reads tone powers off the spectrum, and evaluates
    the de-embedding formulas.  Comparing the results with the part's true
    parameter values validates the budgets empirically. *)

module Path = Msoc_analog.Path

type t
(** A tester session bound to one manufactured part. *)

val create : ?seed:int -> ?capture_samples:int -> Path.t -> Path.part -> t
(** Defaults: seed 1234, 4096 ADC samples per capture.  Requires
    [capture_samples] to be a power of two >= 256.  Builds the session's
    waveform engine once, drawing all its noise from [seed]. *)

val path_gain_db : t -> level_dbm:float -> float
(** Single-tone composite gain at a 100 kHz IF. *)

val lo_frequency_hz : t -> level_dbm:float -> float
(** Adaptive LO measurement: apply an RF tone at a known frequency and
    subtract the measured IF — the prerequisite for the LPF cut-off
    sweep. *)

val mixer_p1db_dbm : t -> strategy:Propagate.strategy -> float
(** Level sweep to the 1 dB compression point.  Nominal strategy detects
    the drop against the nominal-gain line; adaptive against the part's
    own measured small-signal gain. *)

type validation = {
  parameter : string;
  true_value : float;
  measured : float;
  error : float;
  budget : float;    (** Worst-case prediction from {!Propagate}. *)
  cost : Cost.t;     (** Static application cost of the procedure run
                         (captures from the measurement class, record
                         length and settling from this session's path). *)
}

val validate_part :
  ?pool:Msoc_util.Pool.t ->
  ?seed:int ->
  Path.t ->
  Path.part ->
  strategy:Propagate.strategy ->
  validation list
(** Run the full propagated-measurement set against one part and compare
    each result with the part's true parameter value.  With [pool], the
    five measurement procedures run on separate domains, sharing the
    session engine (its runs are pure, so the procedures are
    independent); the result list is in procedure order and identical to
    the serial path for every pool size. *)

val validate_population :
  ?pool:Msoc_util.Pool.t ->
  ?seed:int ->
  Path.t ->
  parts:int ->
  strategy:Propagate.strategy ->
  rng:Msoc_util.Prng.t ->
  (Path.part * validation list) array
(** Monte-Carlo sweep of the virtual tester: sample [parts] manufactured
    parts from [rng] (serially, so the population is independent of the
    pool size) and validate each, part [i] with session seed [seed + i]
    (default [seed] 1000).  With [pool], parts are distributed across
    domains; results are in sampling order and bit-identical to the serial
    path. *)
