(** Power spectra of real signals, with calibrated tone readback.

    This is the "mixed-signal tester" observation path of the paper: the
    response at the digital filter output (or the digitised analog output) is
    windowed, transformed, and summarised into per-bin powers from which tone
    amplitudes, harmonics, and the noise floor are extracted. *)

type t = {
  bins : float array;   (** Per-bin signal power (V^2, mean-square). *)
  sample_rate : float;
  window : Window.kind;
  length : int;          (** Number of time samples analysed. *)
}

val analyze : ?window:Window.kind -> sample_rate:float -> float array -> t
(** Power spectrum of a real capture (default window: {!Window.Hann}).
    Bin [k] holds the one-sided power near [k * sample_rate / length],
    normalised by the window's coherent gain and equivalent noise bandwidth
    so that {!tone_power} of a sine of amplitude [a] reads [a^2 / 2] and the
    sum over noise bins reads the true noise variance.  Requires at least 8
    samples. *)

val analyze_many :
  ?pool:Msoc_util.Pool.t ->
  ?window:Window.kind ->
  sample_rate:float ->
  float array array ->
  t array
(** {!analyze} applied to every capture, distributed across the domains
    of [pool] (default {!Msoc_util.Pool.serial}); result order matches
    input order and is identical for every pool size. *)

val bin_count : t -> int
val frequency_of_bin : t -> int -> float
val bin_of_frequency : t -> float -> int
(** Nearest bin.  Requires a frequency in [\[0, sample_rate / 2\]]. *)

val power_db : t -> int -> float
(** Bin power in dB relative to 1 V^2 (i.e. 10 log10 of the bin power), with
    a -400 dB floor for empty bins. *)

val db_of_power : float -> float
(** The dB map of {!power_db} on a raw power: [10 log10 p], or -400 dB at
    or below [1e-40]. *)

val tone_power : ?avoid:(int -> bool) -> t -> freq:float -> float
(** Power of a tone near [freq]: sums bins within the window's main lobe
    around the nearest local peak.  The peak search climbs from the nearest
    bin, and [avoid] (default: nothing) bounds it — bins for which [avoid]
    holds are neither climbed onto nor integrated, which keeps a spur
    reading from walking up a neighbouring tone's leakage skirt into that
    tone's main lobe. *)

val total_power : t -> exclude_dc:bool -> float
val peak_bin : t -> int
(** Highest-power bin, DC excluded. *)

val noise_floor_db : t -> exclude:(int -> bool) -> float
(** Median per-bin power in dB over bins not excluded — robust to tones. *)

(** {2 Prepared comparison against a golden capture}

    The spectral fault test judges thousands of captures against one
    golden spectrum.  A {!mask} holds everything that depends only on the
    golden side, so that judging one capture allocates nothing. *)

type mask

val mask :
  t -> floor_db:float array -> excluded:bool array -> tolerance_db:float -> mask
(** [mask golden ~floor_db ~excluded ~tolerance_db] prepares the bin-wise
    comparison against [golden]: per bin, both spectra are clamped at
    [floor_db.(k)] (dB) and compared in dB.  Bins with [excluded.(k)] and
    DC are not compared.  Both arrays need one cell per bin of [golden];
    they are copied. *)

val departs : mask -> scale:float -> int array -> bool
(** [departs mask ~scale stream]: does the spectrum of the capture
    [stream.(i) * scale] (windowed and normalised as {!analyze} does, with
    the golden capture's window) differ from the golden one by more than
    [tolerance_db] in some compared bin?  Each bin reads bit-identically to
    comparing {!power_db} of the two {!analyze} results.  The stream must
    have the golden capture's length.  Allocation-free in steady state;
    safe to call from several domains at once. *)
