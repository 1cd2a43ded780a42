(** The msoc daemon: plan / measure / faultsim / montecarlo / schedule
    requests over a Unix-domain socket, executed on the shared domain
    pool behind a bounded queue with class-aware backpressure and a
    single-flight result cache.

    One {e acceptor} (the caller of {!run}) multiplexes
    accept/read/write through one select loop; it classifies each
    request (ping/metrics are {e cheap}, compute verbs are {e heavy}),
    rejects with a structured ["overloaded"] reply when the class cap or
    the queue is exhausted, probes the result cache (answering hits on
    the spot), and attaches a duplicate of an in-flight compute request
    (same {!Protocol.cache_key}) to that execution instead of queueing
    it.  A job stays joinable from admission until its result is
    published to the cache, so a duplicate finds either the job or its
    body.  {e K executors} ([executors], default = pool size) pop the
    shared queue concurrently, and one execution answers every waiter.
    All answers are byte-identical regardless of executor count, cache
    state or sharing — the compute verbs are deterministic functions of
    their canonical key.  A request asking for a trace bypasses the cache
    and the in-flight table, so its export describes its own execution.

    Observability: every request gets a trace id; it runs under a
    [serve.request] span with [serve.queue_wait] / [serve.execute] /
    [serve.serialize] children.  Obs is the only telemetry store, and one
    rule holds at every executor count: a request's trace is its
    executor's Obs generation (the executor's sink plus the pool-worker
    sinks that joined its runs), and the executor folds that generation
    into Obs's lifetime store once the request is answered and its trace
    exported ([Obs.reset_domain]).  Request counters by verb and status,
    log2-bucket latency and queue-wait histograms and the shared-execution
    series go straight into the lifetime store; gauges and the cache and
    queue totals are copied there when a scrape runs, and the [metrics]
    body is [Obs.to_prometheus ()].  One JSON access-log line is written
    per request (mutex-guarded — lines never interleave).

    While a server is running it owns the global [Obs] state ({!run}
    enables it and starts a session with [Obs.reset]); {!run} restores
    disabled-and-reset on return. *)

type config = {
  socket_path : string;
  queue_capacity : int;
  executors : int option;
      (** executor domains popping the shared queue; [None] = pool size *)
  cache_size : int;  (** result-cache entries; [0] disables the cache *)
  access_log : string option;   (** JSON lines, one per request *)
  metrics_out : string option;  (** final metrics flush on shutdown *)
  pool : Msoc_util.Pool.t option;  (** [None] means [Pool.get_default ()] *)
}

val config :
  ?queue_capacity:int -> ?executors:int -> ?cache_size:int ->
  ?access_log:string -> ?metrics_out:string -> ?pool:Msoc_util.Pool.t -> string -> config
(** [config socket_path] with queue capacity 64, executors = pool size,
    a 256-entry cache, and no logs.  At most [max 1 (3/4 × queue
    capacity)] heavy (compute) jobs are queued at once, so cheap probes
    always find queue space. *)

type t

val create : config -> t
(** Open the access log, then bind and listen on the socket (an existing
    socket file is replaced).  Clients may connect from this point on.

    @raise Invalid_argument when [executors] or [queue_capacity] is below
    1, and [Sys_error] when the access log cannot be opened, both before
    the socket path is touched; [Unix.Unix_error] when the socket cannot
    be bound.  A [create] that raises leaves no descriptor open. *)

val run : t -> unit
(** Serve until {!request_stop}: blocks the calling domain.  Installs a
    SIGPIPE-ignore handler; on return the queue has drained (admitted
    jobs still execute and answer every waiter), pending responses are
    delivered, the final metrics snapshot is written to [metrics_out],
    and the socket file is unlinked. *)

val request_stop : t -> unit
(** Ask a running server to shut down cleanly.  Callable from any
    domain and from an OCaml signal handler. *)

val executors : t -> int
(** The resolved executor count. *)
