(** Cascaded integrator–comb (CIC) decimation filters.

    The standard decimator behind a sigma–delta modulator: [order]
    integrators running at the input rate followed by [order] combs at the
    decimated rate.  All arithmetic is in native integers with wrap-around
    (the classic Hogenauer trick: wrap-around cancels through the combs as
    long as the word is wide enough for the worst-case gain, which
    {!create} checks). *)

type t

val create : order:int -> decimation:int -> t
(** Requires [order >= 1], [decimation >= 2], and
    [order * log2 decimation <= 40] so the gain fits a native word with
    input magnitudes up to 2^20. *)

val process : t -> int array -> int array
(** Feed input-rate samples, get decimated-rate samples (state persists
    across calls; output length is [floor (input length / decimation)] plus
    any carry-over phase).  The output array is sized up front and written
    in place; nothing else is allocated. *)

val magnitude_db : t -> input_rate:float -> freq:float -> float
(** Magnitude response at the input rate, normalised to unity DC gain:
    [|sin(pi f R / fs) / (R sin(pi f / fs))| ^ order]. *)
