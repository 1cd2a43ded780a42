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
    each result with the part's true parameter value: the composite path
    gain (one tone at a 100 kHz IF), the mixer IIP3, the mixer P1dB (a
    level sweep to 1 dB compression, against the nominal-gain line or,
    adaptively, against the part's own measured gain), the LPF cut-off and
    the LO frequency error (an RF tone at a known frequency minus the
    measured IF).  One session engine, drawing all its noise from [seed]
    (default 1234), serves every capture of 4096 ADC samples.  The five
    measurement procedures run across the domains of [pool] (default
    {!Msoc_util.Pool.serial}), sharing the session engine (its runs are
    pure, so the procedures are independent); the result list is in
    procedure order and identical for every pool size. *)

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
    (default [seed] 1000).  Parts are distributed across the domains of
    [pool] (default {!Msoc_util.Pool.serial}); results are in sampling
    order and bit-identical for every pool size. *)
