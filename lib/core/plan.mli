(** End-to-end test-plan synthesis for a mixed-signal signal path.

    Assembles the complete methodology: the Table-1 parameter inventory,
    the composed tests (with their Fig.-3 boundary checks) first — they are
    the adaptive prerequisites — then the propagated measurements with
    their error budgets and predicted FCL/YL at [Thr = Tol], and finally
    the digital-filter structural test.  Propagated tests whose predicted
    losses exceed the caller's limits are flagged as needing DFT — the
    paper's fallback ("a DFT technique needs to be utilized to decrease the
    amount of error"). *)

module Path = Msoc_analog.Path

type entry =
  | Composed of Compose.t
  | Propagated of { measurement : Propagate.t; losses : Coverage.losses }
  | Digital_filter_test of { description : string }

type t = {
  path : Path.t;
  specs : Spec.t list;
  entries : entry list;
  boundary_checks : Compose.boundary_check list;
}

val synthesize : ?strategy:Propagate.strategy -> Path.t -> t
(** Default strategy: [Adaptive]. *)

val population_of_spec : Spec.t -> Msoc_stat.Distribution.t option
(** Manufactured-population model of the spec's [source] ([None] for
    specs without a toleranced source, e.g. stuck-at coverage). *)

val losses : Spec.t -> error:float -> Coverage.losses
(** Predicted FCL/YL at [Thr = Tol] of a measurement of the spec whose
    worst-case error is [error] (zero without a population model): the
    losses of every propagated entry, at that entry's {!Propagate.err}. *)

val dft_required : t -> max_fcl:float -> max_yl:float -> Propagate.t list
(** Propagated tests whose predicted losses exceed both limits. *)

val table1 : (string * string list) list
(** Block name to tested-parameter names — regenerates paper Table 1. *)

val audit : t -> Audit.t list
(** The plan's provenance trail: one record per composed or propagated
    entry (the digital-filter test has none), each with its required
    tolerance, predicted FCL/YL and the application cost {!schedule}
    prices.  Composites come first in plan order, then the propagated
    entries in reverse plan order (the order the golden fixtures pin). *)

val pp_summary : Format.formatter -> t -> unit

(** {2 Test-program scheduling and application cost}

    The adaptive strategy imposes an order: composites (path gain, LO
    frequency) must be measured before the measurements that substitute
    them.  {!schedule} topologically sorts the plan by its prerequisite
    names and attaches each step's derived {!Cost.t}. *)

type step = {
  position : int;                 (** 1-based program order. *)
  name : string;
  prerequisites : string list;
  cost : Cost.t;                  (** Full derived application cost. *)
}

val schedule : t -> step list
(** Raises [Invalid_argument] on a prerequisite cycle.  Every capture
    records 4096 samples (4.2 ms per capture on the default receiver: 48
    settle + 4096 record cycles at 1 MHz). *)

val total_test_time : step list -> float

