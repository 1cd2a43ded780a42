(** Deterministic pseudo-random number generation.

    Every stochastic component of the stack (noise injection, Monte-Carlo
    parameter sampling, fault sampling) draws from an explicit generator so
    that experiments are reproducible bit-for-bit.  The generator is
    xoshiro256** seeded through splitmix64. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. *)

val copy : t -> t
(** Independent copy with identical state. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    decorrelated from the remainder of [g]'s stream. *)

val split_seed : t -> int64
(** [split_seed g] advances [g] by one raw draw and returns it: the raw
    64-bit output, which names the stream that {!split} would have
    returned ({!reseed} with [split_seed g] yields [split g]
    bit-for-bit).  Storing seeds instead of generators lets a
    million-stream fan-out keep one flat [int64]-per-stream table instead
    of a million generator records. *)

val reseed : t -> int64 -> unit
(** [reseed g bits] resets [g] in place to the stream named by the
    {!split_seed} draw [bits], without allocating — the replay primitive
    for scratch generators that iterate a seed table. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)]. *)

val int : t -> int -> int
(** [int g n] is uniform in [\[0, n)].  Requires [n > 0].  Exactly uniform:
    non-power-of-two [n] uses power-of-two masking with rejection instead of
    a (biased) modulo reduction, so each draw may consume more than one raw
    output. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller, no caching). *)

val fill_gaussian : t -> scale:float -> float array -> unit
(** [fill_gaussian g ~scale out] sets [out.(i)] to [scale *. gaussian g]
    for [i] in order: the same draws and values as that loop, without
    allocating — the noise-track fill of the waveform engine. *)

val gaussian_scaled : t -> mean:float -> sigma:float -> float
(** Normal deviate with the given mean and standard deviation. *)
