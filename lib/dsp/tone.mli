(** Multi-tone sine stimulus construction.

    The paper's test stimuli for digital filters are 1- and 2-tone sine waves
    whose frequencies lie in the filter pass band and whose composite
    amplitude exercises a wide dynamic range (§3).  For leakage-free spectral
    comparison the tones should be {e coherent} with the capture: an integer,
    preferably odd and mutually prime, number of cycles per record. *)

type component = { freq : float; amplitude : float; phase : float }

val component : ?phase:float -> freq:float -> amplitude:float -> unit -> component

val coherent_frequency : sample_rate:float -> samples:int -> target:float -> float
(** Nearest frequency to [target] with an odd integral number of cycles in
    [samples] points — odd so that even-symmetric faults do not alias onto
    the tone itself.  Requires [0 < target < sample_rate / 2]. *)

val synthesize : sample_rate:float -> samples:int -> component list -> float array
(** Sum of sines sampled at [sample_rate]. *)

val synthesize_into : sample_rate:float -> component list -> float array -> unit
(** Fill the whole output array with the same waveform (bit-identical to
    {!synthesize} of the same length) without allocating. *)

type unit_wave
(** One stored unit waveform of a fixed length: [sin (2 pi f t / rate +
    phase)] for the last frequency, phase and sample rate synthesized
    through it. *)

val unit_wave : samples:int -> unit_wave
(** An empty store for waveforms of [samples] points. *)

val synthesize_single_into : unit_wave -> sample_rate:float -> component -> float array -> unit
(** [synthesize_single_into memo ~sample_rate c out] fills [out] exactly as
    [synthesize_into ~sample_rate [c] out] does, bit for bit.  The unit
    waveform is computed into [memo] only when [memo] does not already hold
    the one for [c]'s frequency and phase at [sample_rate] (compared bit
    for bit), so a repeated tone costs one multiply-add pass and no [sin].
    Requires [out] to have [memo]'s length. *)

val sample : sample_rate:float -> t:int -> component list -> float
(** Single point of the same waveform (streaming form). *)

val fit : float array -> sample_rate:float -> freq:float -> component
(** Least-squares fit of a single sine at a known frequency: correlate the
    capture with the quadrature pair at [freq] and return the recovered
    component (exact for coherent tones, noise-averaging otherwise). *)
