(** Small floating-point helpers shared by the numeric substrates. *)

val clamp : lo:float -> hi:float -> float -> float
(** Clamp a value into [\[lo, hi\]].  Requires [lo <= hi]. *)

val linspace : float -> float -> int -> float array
(** [linspace a b n] is [n >= 2] evenly spaced points from [a] to [b]
    inclusive. *)

val sum : float array -> float
(** Kahan-compensated sum. *)

val max_abs : float array -> float
(** Largest absolute value; 0 for an empty array. *)
