(** Window functions for spectral analysis.

    When the paper's test tones are not exactly coherent with the capture
    length (as happens after the LO's frequency error shifts them), a window
    bounds the spectral leakage so that fault-induced harmonics remain
    distinguishable.  Each window carries its coherent gain and equivalent
    noise bandwidth so that tone power and noise density can be read back
    calibrated. *)

type kind = Rectangular | Hann | Hamming | Blackman | Blackman_harris

val name : kind -> string

val coefficients : kind -> int -> float array
(** [coefficients kind n] is the length-[n] window (periodic form).
    Requires [n >= 1].  Tables are cached per [(kind, n)]; the returned
    array is a fresh copy the caller may mutate. *)

val coherent_gain : kind -> float
(** Mean of the window coefficients (amplitude scaling of a coherent tone). *)

val noise_bandwidth_bins : kind -> float
(** Equivalent noise bandwidth in FFT bins (1.0 for rectangular). *)

val lobe_half_width : kind -> int
(** Main-lobe half width in bins, over which a tone's leaked power is
    integrated. *)

val apply_into : kind -> float array -> float array -> unit
(** [apply_into kind signal out] writes the pointwise product of [signal]
    with the window of matching length into the first [length signal]
    cells of [out] (which must be at least that long), without
    allocating. *)
