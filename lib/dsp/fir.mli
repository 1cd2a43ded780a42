(** FIR filter design and reference (floating-point) evaluation.

    The digital filter under test in the paper is a 13-tap (and, for Fig. 1,
    16-tap) low-pass FIR.  This module designs the coefficient sets
    (windowed-sinc), quantizes them to the fixed-point word length realised
    by the gate-level datapath, and provides the behavioural golden model the
    structural netlist is validated against. *)

type design = {
  taps : float array;
  cutoff : float;        (** Normalised cutoff (fraction of sample rate). *)
  window : Window.kind;
}

val lowpass : taps:int -> cutoff:float -> ?window:Window.kind -> unit -> design
(** Windowed-sinc low-pass (default window {!Window.Hamming}).  [cutoff] is
    the -6 dB point as a fraction of the sample rate, in (0, 0.5).
    Coefficients are normalised to unity DC gain.  Requires [taps >= 1]. *)

val magnitude_db : float array -> freq:float -> float

val quantize : float array -> bits:int -> int array * float
(** Round coefficients to signed [bits]-bit integers with a shared power-of-
    two scale chosen to maximise precision; returns [(codes, scale)] with
    [code * scale ~ coefficient].  Requires [2 <= bits <= 30]. *)

val filter : float array -> float array -> float array
(** [filter taps x] is the causal convolution (same length as [x], zero
    initial state): the floating-point reference of a designed filter.
    Only [test_dsp]'s "convolution" test calls it; the gate-level
    datapath is checked against the integer model
    [Fir_netlist.response]. *)
