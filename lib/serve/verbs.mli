(** Shared bodies of the compute verbs (plan, measure, faultsim,
    montecarlo, schedule): each verb's computation and rendering is
    implemented once here and reused by both the msoc CLI subcommands
    and the daemon executor, so the two front ends answer
    byte-identically and a new verb is registered in one dispatch table,
    not two.

    Every body runs its computation under a [serve.execute] span and its
    rendering under [serve.serialize], so request traces attribute time
    the same way in both front ends.  Parallel verbs (faultsim, schedule)
    fan out over the supplied pool; results are bit-identical at every
    pool size. *)

val run : pool:Msoc_util.Pool.t -> Protocol.request -> string
(** Execute the request's verb and return the rendered body text.

    @raise Failure on bad request parameters, naming the field: an
    unknown topology, strategy or SOC name, or a faultsim or montecarlo
    size out of range.
    @raise Invalid_argument when the verb is not a compute verb
    (Metrics/Ping/Sleep read daemon state and live in the server). *)

val audit : Protocol.request -> Msoc_synth.Audit.t list
(** The synthesis audit trail of the plans the request's verb derives:
    the plan's records for [plan], every core's for [schedule], none for
    the other verbs.  Synthesis is pure, so this re-derives exactly the
    plans {!run} rendered.

    @raise Failure on the same bad parameters as {!run}. *)

val strategy_of : Protocol.request -> Msoc_synth.Propagate.strategy
(** The request's de-embedding strategy.
    @raise Failure on a name other than [nominal] or [adaptive]. *)

(** {2 Synthesis result cache}

    Compute verbs are pure functions of their canonical request key
    ({!Protocol.cache_key}), so rendered bodies can be reused outright.
    The cache layer lives here — below both front ends — which is what
    keeps a cached reply byte-identical to a cold one. *)

type cache
(** A bounded LRU from canonical request keys to rendered bodies, safe
    to probe and fill from any mix of domains. *)

val create_cache : size:int -> cache option
(** [None] when [size <= 0]: a disabled cache is no cache. *)

val cache_find : cache -> Protocol.request -> string option
(** Probe without computing (the admission-time fast path), counting a
    hit or a miss.  Always [None], and uncounted, for non-cacheable
    verbs. *)

val cache_add : cache -> Protocol.request -> string -> unit
(** Fill the cache with a freshly rendered body, without touching the
    hit/miss counters (the probe already counted the miss).  No-op for
    non-cacheable verbs. *)

val cache_stats : cache -> int * int * int
(** [(hits, misses, evictions)] since creation, for the
    [msoc_serve_cache_*_total] metric family. *)
