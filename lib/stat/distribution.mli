(** Univariate distributions for parameter modelling.

    The paper models a defect-free analog parameter as a random variable whose
    spread is set by the designer's tolerance.  Following common CAD practice
    we map a "± tol" specification to a normal distribution with
    [sigma = tol / 3] (99.73% of defect-free parts inside the tolerance). *)

type t = Normal of { mean : float; sigma : float }

val normal : mean:float -> sigma:float -> t
(** Requires [sigma > 0]. *)

val pdf : t -> float -> float
val cdf : t -> float -> float

val sample : t -> Msoc_util.Prng.t -> float
val mean : t -> float
val stddev : t -> float

val pp : Format.formatter -> t -> unit
