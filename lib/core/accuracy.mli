(** Measurement-error budgets.

    When a module-level measurement is converted to the system level, every
    nominal gain assumed in the de-embedding formula contributes its
    tolerance to the error of the computed parameter (§4.2, Fig. 4).  A
    budget names those contributions so that the adaptive strategy — replace
    a nominal term with a previously measured composite — is visible as the
    removal of a contribution. *)

type contribution = { source : string; err : float }

type t = {
  contributions : contribution list;
  instrument_err : float;
  (** Residual error of the primary-output reading itself (FFT resolution,
      tester accuracy); always present. *)
}

val create : ?instrument_err:float -> contribution list -> t
(** Default instrument error 0.1 (same unit as the contributions). *)

val worst_case : t -> float
(** Sum of absolute contributions (intervals add linearly). *)

val rss : t -> float
(** Root-sum-square — the expected (1-sigma-ish) error when contributions
    are independent. *)

val pp : Format.formatter -> t -> unit
