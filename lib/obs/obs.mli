(** Telemetry for the virtual tester: spans, counters, histograms.

    Probes are permanently compiled into the hot paths and gated by a
    single runtime flag; while disabled every probe is one atomic load
    plus a branch (a few nanoseconds, allocation-free), so leaving the
    instrumentation in place costs nothing measurable.

    {2 Concurrency and determinism}

    Each domain writes to its own private (domain-local) sink; no probe
    ever takes a lock or writes shared state, so enabling telemetry
    cannot perturb the pool's bit-identity contract — pooled results are
    identical with telemetry on or off, at any pool size.

    {2 Generations and the lifetime store}

    A domain's trace is its {e generation}: its own sink plus the sinks
    of the pool workers that joined its parallel runs (a worker adopts
    its caller's generation at its first hook of each run).  Both
    exports read the caller's generation — there is no other scope —
    under the registry mutex, after the caller's pooled work has joined:
    sinks in domain-id order, order-independent sums.

    Clearing a generation first folds its counters, histograms and loss
    counts into the {e lifetime store}, so each count reaches it exactly
    once; only {!reset} empties it.  {!to_prometheus} renders the store
    plus the caller's generation.  A run that resets once (the CLI) never
    folds, so its exports cover the whole run.

    Each sink holds at most [max_events] span events; further events
    are counted as dropped (in each track's JSONL record and the
    exposition) rather than grown without bound.

    {2 Exports}

    A generation leaves the process in exactly two forms: the trace
    ({!jsonl}), which {!Trace} parses and renders into every other view
    (text summary, utilization, critical path, folded stacks, Chrome
    trace_event JSON), and the metrics ({!to_prometheus}). *)

val now_ns : unit -> int64
(** Monotonic clock, nanoseconds. *)

(** {2 Lifecycle} *)

val enable : unit -> unit
(** Start recording.  First call also stamps the trace epoch. *)

val disable : unit -> unit
(** Stop recording; already-recorded data remains exportable. *)

val reset : unit -> unit
(** Start a session: drop the data of every sink without folding it,
    empty the lifetime store and re-stamp the trace epoch. *)

val reset_domain : unit -> unit
(** The per-request reset: fold the caller's generation into the
    lifetime store, clear it and start a new one.  Other generations and
    the trace epoch are untouched, so a server executor can reset after
    each answered request while its siblings serve theirs.  A worker
    that follows another caller before this reset folds its own part
    first (that part then misses this caller's trace, never a count). *)

val max_events : int
(** Per-sink span-event capacity, [2^20] (events beyond it are
    dropped). *)

(** {2 Probes} *)

val count : ?by:int -> string -> unit
(** [count name] adds [by] (default 1) to counter [name] on this domain. *)

val observe : string -> float -> unit
(** [observe name v] records [v] into histogram [name] on this domain. *)

type timer
(** An in-flight span; [Inactive] when telemetry is disabled. *)

val start_span : ?args:(string * string) list -> string -> timer
(** Open a span named [name], nested under this domain's innermost open
    span.  Returns an inactive timer (no allocation beyond the variant)
    when disabled. *)

val stop_span : ?args:(unit -> (string * string) list) -> timer -> unit
(** Close a span and record the event.  [args] is evaluated only if the
    timer is live, so call sites can tag spans with computed values
    (e.g. achieved accuracy) without paying for it when disabled. *)

val span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()] inside a span; exception-safe.  Disabled
    path is one atomic load, then a tail call to [f]. *)

val record_span :
  ?args:(string * string) list -> string -> start_ns:int64 -> stop_ns:int64 -> unit
(** Record an already-elapsed interval as a completed span, nested under
    this domain's innermost open span.  For intervals only known after
    the fact — e.g. a server can only attribute a request's queue wait
    once it has dequeued the request.  Both stamps must come from
    {!now_ns}; a negative interval clamps to zero duration. *)

(** {2 Lifetime store}

    Labelled series that outlive generations, recorded whether or not
    telemetry is enabled, under a mutex (request granularity, not hot
    loops).  Counter [c] renders as [msoc_<c>_total], gauge and
    histogram [n] as [msoc_<n>]; labels render in the order given. *)

module Lifetime : sig
  val count : ?labels:(string * string) list -> ?by:int -> string -> unit
  (** Add [by] (default 1) to a counter. *)

  val set_total : ?labels:(string * string) list -> string -> int -> unit
  (** Set a counter to a monotonic total kept elsewhere (a cache's hits,
      a queue's admissions). *)

  val gauge : ?labels:(string * string) list -> string -> int -> unit
  (** Set a gauge. *)

  val observe : ?labels:(string * string) list -> string -> float -> unit
  (** Record a value into a log2 histogram. *)
end

(** {2 Pool work}

    The pool hooks record each chunk of a pooled run once: a
    [pool.chunk] span whose args name its [slot], the pool's [size] and,
    when the chunk was stolen, its [victim]; one [pool.chunk.items]
    observation of its length; and a [pool.steals] count when stolen.
    {!Trace} derives per-slot occupancy from these spans alone. *)

(** {2 Exporters} *)

val jsonl : unit -> string
(** The trace: one JSON object per line, tracks (domains) in id order.
    Per track, its ["span"] records (name, slash-joined path, epoch-
    relative [ts_ns], [dur_ns], args) in recording order, its
    ["counter"] and ["histogram"] records by name, then one ["track"]
    record with its event and dropped counts.  Lossless: integers stay
    integers, histogram sums, extremes and bucket edges are written at
    round-trip precision, and an infinite edge as [null].  Buckets are
    [[lower, upper, count]] triples of the non-empty log2 buckets:
    bucket 0 holds non-positive values ([\[-inf, 0\]]), the next covers
    [\[0, 2^-63)], each later one [\[lo, 2lo)], and the top one
    everything from [2^64] ([\[2^64, inf)]). *)

val write_jsonl : string -> unit

val to_prometheus : unit -> string
(** Prometheus text exposition (0.0.4) of the lifetime store plus the
    caller's generation: counters as [msoc_<name>_total], gauges,
    histograms with cumulative log2 buckets, the generation's per-path
    span statistics as a labelled summary family, the dropped-event
    counter [msoc_dropped_span_events_total] and the [msoc_build_info]
    gauge. *)

val set_build_info : git_rev:string -> unit
(** Set the [git_rev] label of the [msoc_build_info] gauge (defaults to
    ["unknown"]); OCaml version and pool size are read from the
    process. *)

val warn_if_dropped : unit -> unit
(** Print a one-line stderr warning when the caller's generation dropped
    span events (beyond the per-sink {!max_events} cap).  {!write_jsonl}
    calls this, so incomplete exports always announce themselves. *)
