(** Memoryless polynomial nonlinearity fitted to RF specifications.

    [y = a1 x + a3 x^3 + a5 x^5], where [a3] is chosen so that the two-tone
    third-order intercept extrapolates to the specified IIP3 and, when a
    compression point is given, [a5] is chosen so that the gain has dropped
    exactly 1 dB at the specified P1dB input amplitude.  Outside the region
    where the polynomial is monotone the output is clamped (hard
    saturation), which reproduces the paper's Fig. 3 failure mode. *)

type t

val fit : gain_lin:float -> iip3_vpeak:float -> ?p1db_vpeak:float -> unit -> t
(** Requires positive gain and amplitudes.  Without [p1db_vpeak] the cubic
    alone sets compression (P1dB at IIP3 - 9.6 dB). *)

val apply_into : t -> float array -> unit
(** The transfer curve over a whole buffer, in place and without
    allocating. *)

val saturation_input : t -> float
(** Input amplitude beyond which the output is clamped. *)
