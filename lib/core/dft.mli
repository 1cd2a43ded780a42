(** DFT fall-back advisor.

    "If test synthesis results in unacceptable fault coverage and yield
    loss, a DFT technique needs to be utilized to decrease the amount of
    error" (§4.2).  For each propagated measurement whose predicted losses
    exceed the caller's limits, this module quantifies what a test point at
    the measured block's boundary would buy: direct access removes every
    de-embedding contribution from the budget, leaving the instrument
    error, and the losses are re-evaluated with the shrunken error. *)

type recommendation = {
  measurement : Propagate.t;
  losses_without : Coverage.losses;   (** At [Thr = Tol], via signal paths. *)
  losses_with : Coverage.losses;      (** Same, with a test point inserted. *)
  budget_with : Accuracy.t;
  fcl_reduction : float;              (** [fcl_without - fcl_with]. *)
  yl_reduction : float;
}

val recommend : Plan.t -> max_fcl:float -> max_yl:float -> recommendation list
(** Recommendations for the plan's {!Plan.dft_required} measurements (its
    propagated entries whose losses exceed both limits), sorted by
    decreasing fault-coverage-loss reduction — the insertion order that
    buys the most testability first. *)
