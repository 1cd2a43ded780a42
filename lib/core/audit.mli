(** Synthesis audit trail.

    One provenance record per synthesized analog parameter: which
    translation strategy produced the test, the stimulus it drives, the
    accuracy it achieves and — for propagated measurements — how each
    surrounding block's tolerance contributes to the error budget through
    the de-embedding chain.

    The trail is a pure function of a synthesized plan: {!Plan.audit}
    derives the records of one path's plan and [Schedule.audit] those of
    every core of an SOC.  This module holds the record, {!t}, and its two
    renderings. *)

type t = {
  parameter : string;       (** e.g. ["Mixer IIP3"]. *)
  origin : string;          (** ["propagated"] or ["composed"]. *)
  strategy : string;        (** De-embedding strategy name. *)
  formula : string;
  stimulus : string;        (** Rendered stimulus attributes. *)
  achieved_err : float;     (** Worst-case accuracy of the computed value. *)
  rss_err : float;          (** Root-sum-square accuracy. *)
  instrument_err : float;
  contributions : Accuracy.contribution list;
      (** Per-surrounding-block error-budget terms of the de-embedding
          chain (empty for composites — that is composition's point). *)
  prerequisites : string list;
  required_tol : float option;
      (** Parameter tolerance the test must resolve ([None] for a
          parameter without a toleranced source). *)
  fcl : float option;       (** Predicted fault-coverage loss at Thr = Tol
                                ([None] for composites). *)
  yl : float option;        (** Predicted yield loss at Thr = Tol. *)
  cost : Cost.t;            (** Derived application cost, in ATE clock
                                cycles at the path's digitizer rate. *)
}

val to_json : t list -> string
(** One JSON object, [{"audit": [record, ...]}], numbers at round-trip
    precision; each cost carries its [ate_cycles]. *)

val to_text : t list -> string
(** Texttable report: one row per record plus the budget breakdown of each
    propagated parameter. *)
