(** Monte-Carlo estimation engine.

    The paper obtains parameter distributions "through Monte-Carlo simulations
    during the design process"; this module provides the generic trial loop
    that the [montecarlo] verb's error studies run on. *)

(** {2 Trial loops}

    Each trial draws from its own generator stream, split serially from
    [rng] before any parallel execution
    ({!Msoc_util.Pool.parallel_floats_rng}), so results are bit-identical
    for every pool size; [pool] defaults to {!Msoc_util.Pool.serial}. *)

val sample_array_pooled :
  ?pool:Msoc_util.Pool.t ->
  trials:int ->
  rng:Msoc_util.Prng.t ->
  f:(Msoc_util.Prng.t -> int -> float) ->
  unit ->
  float array
(** [f stream i] computes trial [i] from its private stream.  Requires
    [trials > 0]. *)
