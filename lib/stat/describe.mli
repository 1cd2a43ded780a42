(** Descriptive statistics over float samples. *)

type summary = {
  count : int;
  mean : float;
  variance : float;  (** Unbiased (n-1) sample variance; 0 when count < 2. *)
  stddev : float;
  minimum : float;
  maximum : float;
}

val summarize : float array -> summary
(** Requires a non-empty array.  Uses Welford's online algorithm. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0, 1\]], linear interpolation between
    order statistics.  Requires a non-empty array; sorts a copy.  In
    production only {!median} calls it; outside this module only
    [test_stat]'s "percentile" test does.  It is kept as the one
    percentile rule for the benches to share. *)

val median : float array -> float
val rms : float array -> float
(** Root mean square; 0 for an empty array. *)

val welch_ci95 :
  stddev_a:float -> n_a:int -> stddev_b:float -> n_b:int -> float
(** 95% confidence half-width of the {e difference} of two sample means
    (Welch, normal approximation); 0 when either sample has < 2 points. *)
