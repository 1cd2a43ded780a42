(** Fast Fourier transforms of real signals, written from scratch.

    Power-of-two sizes use an iterative radix-2 decimation-in-time transform
    on split real/imaginary arrays; other sizes go through Bluestein's
    chirp-z algorithm (which reduces to a power-of-two convolution).  A naive
    DFT is exported for cross-validation in the test suite.

    Transforms are {e planned}: the bit-reversal permutation and twiddle
    tables of each power-of-two length, the chirp plus convolution-kernel
    spectrum of each Bluestein length, and the untangling twiddles of each
    real-input length are computed once and memoised, so repeated same-length
    transforms (the virtual tester performs thousands of same-size captures)
    skip all [cos]/[sin] evaluation.  The plan table is mutex-protected and
    plans are immutable once published, so transforms may run concurrently
    from multiple domains.  Internal work buffers (the Bluestein convolution,
    the packed real input) live in per-domain scratch, so steady-state
    transforms allocate nothing.

    Convention: the forward transform is
    [X_k = sum_n x_n exp(-2πi kn / N)]. *)

val is_power_of_two : int -> bool
(** The test that routes a length to the radix-2 path.  Outside this
    module only [test_dsp]'s "pow2 helpers" test calls it. *)

val dft : Complex.t array -> Complex.t array
(** O(N^2) reference implementation: [test_dsp]'s FFT and [rfft]
    agreement tests check every transform against it.  No production
    code calls it. *)

val rfft_into : float array -> re:float array -> im:float array -> unit
(** Forward transform of a real signal into caller-provided split output:
    the first [N/2 + 1] cells of [re]/[im] receive the non-redundant bins
    (DC .. Nyquist).  Any length >= 2; even lengths run a half-length
    complex transform (pack-two-reals), odd lengths a full-length one.
    Allocation-free in steady state. *)

val clear_plan_cache : unit -> unit
(** Drop every memoised plan.  Only useful to benchmarks and tests that want
    to measure or exercise cold-plan behaviour; results are unaffected
    because plans are rebuilt deterministically. *)
