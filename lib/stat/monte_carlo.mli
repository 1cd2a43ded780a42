(** Monte-Carlo estimation engine.

    The paper obtains parameter distributions "through Monte-Carlo simulations
    during the design process"; this module provides the generic trial loop
    and the probability/mean estimators with binomial / CLT confidence
    intervals that the coverage analyses build on. *)

type probability_estimate = {
  trials : int;
  successes : int;
  p : float;            (** Point estimate. *)
  half_width_95 : float; (** 95% normal-approximation half width. *)
}

type mean_estimate = {
  trials : int;
  mean : float;
  stddev : float;
  half_width_95 : float;
}

(** {2 Trial loops}

    Each trial draws from its own generator stream, split serially from
    [rng] before any parallel execution ({!Msoc_util.Pool.split_streams}),
    so results are bit-identical for every pool size, no pool included. *)

val sample_array_pooled :
  ?pool:Msoc_util.Pool.t ->
  trials:int ->
  rng:Msoc_util.Prng.t ->
  f:(Msoc_util.Prng.t -> int -> float) ->
  unit ->
  float array
(** [f stream i] computes trial [i] from its private stream.  Requires
    [trials > 0]. *)

val estimate_mean_pooled :
  ?pool:Msoc_util.Pool.t ->
  trials:int ->
  rng:Msoc_util.Prng.t ->
  f:(Msoc_util.Prng.t -> int -> float) ->
  unit ->
  mean_estimate
(** Requires [trials > 1]. *)

val estimate_probability_pooled :
  ?pool:Msoc_util.Pool.t ->
  trials:int ->
  rng:Msoc_util.Prng.t ->
  f:(Msoc_util.Prng.t -> int -> bool) ->
  unit ->
  probability_estimate
(** Requires [trials > 0]. *)
