(** Toleranced block parameters.

    A defect-free analog parameter "can vary within a range specified by the
    system designer" (§3).  A [Param.t] couples the nominal value with that
    symmetric tolerance; manufacturing instances are drawn from the implied
    normal distribution ([sigma = tol / 3]), and the attribute-domain
    propagation consumes the interval view. *)

type t = { nominal : float; tol : float }
(** [tol] is an absolute, symmetric half-range (same unit as [nominal]). *)

val make : nominal:float -> tol:float -> t
(** Requires [tol >= 0].  With [~tol:0.0] the parameter is exact:
    {!sample} returns its nominal. *)

val interval : t -> Msoc_util.Interval.t

val sample : t -> Msoc_util.Prng.t -> float
(** Draw a manufacturing instance, truncated to the tolerance range (a
    defect-free part by construction). *)
