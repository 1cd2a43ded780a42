(** Closed-interval arithmetic.

    The test-translation methodology of the paper tracks every signal
    attribute together with its {e accuracy}: the attribute is not a point
    value but a range induced by the tolerances of the blocks the signal has
    traversed.  This module provides the interval algebra those computations
    are built on.  All operations are outward-conservative: the result
    interval contains every value reachable from points of the operands. *)

type t = private { lo : float; hi : float }

val make : lo:float -> hi:float -> t
(** Requires [lo <= hi]. *)

val point : float -> t
(** Degenerate interval [\[x, x\]]. *)

val of_err : float -> err:float -> t
(** [of_err x ~err] is [\[x - |err|, x + |err|\]]. *)

val mid : t -> float
(** Midpoint. *)

val err : t -> float
(** Half-width (the "±" part). *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

val scale : float -> t -> t
val contains : t -> float -> bool
val map_monotone : (float -> float) -> t -> t
(** Image under a monotonically increasing function. *)

val pp : Format.formatter -> t -> unit
