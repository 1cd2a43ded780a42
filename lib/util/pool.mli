(** Grain-aware work-stealing domain pool.

    A fixed set of worker domains (OCaml 5 [Domain]s) executes an iteration
    space in contiguous {e grains}.  Worker [slot] owns a static contiguous
    share of [0, n); within it, grains are claimed through a per-worker
    atomic cursor, and a worker whose share is drained steals the remaining
    grains of the other workers — so an uneven tail (the last few faults
    with deep cones, a straggling capture) is levelled instead of
    serialising the join.

    Determinism contract: scheduling is {e not} part of the result.  Every
    entry point hands [f] disjoint index ranges covering [0, n) exactly
    once and writes results back by index, so for a task function whose
    result depends only on its index (and, for the [_rng] variants, on its
    pre-split generator stream), pooled results are bit-identical to the
    serial [Array.init]-style evaluation — for every pool size and every
    grain, stealing included.

    Tasks run on multiple domains concurrently, so [f] must not mutate
    shared state; mutating distinct elements/indices of a shared array is
    fine (the pool join publishes all writes to the caller).

    The pool is the one execution path: engines default [?pool] to
    {!serial}, and only {!parallel_iter_grained} decides to run a range
    inline. *)

type t

(** Instrumentation seam for the telemetry library (which sits above this
    one in the dependency order and installs its probes here at module
    initialisation).  With no hook installed, the overhead is one atomic
    load per pooled run and per chunk; an inline run fires no hook, so it
    records no [pool.*] telemetry. *)
module Hooks : sig
  type t = {
    run : size:int -> serialized:bool -> unit;
        (** Called once per pooled run, never for an inline one;
            [serialized] is true when a re-entrant or concurrent call
            degraded to serial execution. *)
    chunk : size:int -> slot:int -> victim:int -> lo:int -> hi:int -> (unit -> unit) -> unit;
        (** Wraps the execution of one contiguous chunk [lo, hi) by slot
            [slot] of a pool of [size]; the hook MUST call the thunk
            exactly once, on the current domain.  [victim] is the slot
            whose share the chunk came from: the chunk was stolen when it
            differs from [slot]. *)
  }

  val install : t -> unit
  (** Replace the installed hooks (last install wins). *)
end

val create : ?size:int -> unit -> t
(** [create ~size ()] spawns [size - 1] worker domains (the caller of a
    parallel operation acts as the remaining worker).  Default size:
    [Domain.recommended_domain_count ()].  A pool of size 1 spawns nothing
    and runs everything inline. *)

val serial : t
(** The pool of one, every engine's default: it spawns nothing and runs
    everything inline, so any number of domains may use it at once. *)

val size : t -> int

val on_worker : unit -> bool
(** [true] on a worker domain spawned by some pool, [false] on every other
    domain (including the caller of a pooled run, which acts as slot 0). *)

val with_pool : ?size:int -> (t -> 'a) -> 'a
(** [create], run, then stop and join the workers (also on exception).
    Live pools are also shut down on [at_exit], so leaking a pool cannot
    hang program termination. *)

val get_default : unit -> t
(** Lazily created process-wide pool sized by the [MSOC_DOMAINS] environment
    variable when set (>= 1), else [Domain.recommended_domain_count ()]. *)

val default_size : unit -> int

val per_slot : t -> (unit -> 'a) -> int -> 'a
(** [per_slot pool make] returns a lookup function building at most one
    [make ()] per worker slot, on the slot's own domain at first use, and
    reusing it for every later chunk the slot runs — the persistent
    per-worker sim/scratch pattern shared by the pooled simulation engines.
    The lookup must only be called with the [slot] handed to the running
    task (a slot never runs two chunks concurrently). *)

val per_domain : (int -> 'a) -> int -> 'a
(** [per_domain make] returns a lookup building at most one [make n] per
    domain and length [n], at first use, and returning it on every later
    call from that domain — the scratch arena of the DSP and tester
    kernels.  A hit allocates nothing. *)

val parallel_iter_grained :
  t -> n:int -> ?grain:int -> f:(slot:int -> lo:int -> hi:int -> unit) -> unit -> unit
(** Schedule [0, n) in contiguous grains of at most [grain] items with work
    stealing.  [f ~slot ~lo ~hi] receives the executing worker's slot so
    callers can reuse per-worker scratch state (a slot never runs two
    chunks concurrently); [hi] is exclusive.  [grain] is the per-kernel
    cost hint: pass 1 when each item is expensive (a capture), leave it
    out for cheap uniform items (the default splits each worker's share
    into 8 grains).  Chunk boundaries depend on [(n, size, grain)] only —
    never on timing — and results written by index are bit-identical to
    serial execution.  The inline rule: on a pool of one, or when
    [n <= grain], the caller runs [f ~slot:0 ~lo:0 ~hi:n] and no worker
    wakes.  A call from inside a task, or while another domain's call
    runs, executes every slot's share in the calling domain. *)

val parallel_init : ?grain:int -> t -> int -> (int -> 'a) -> 'a array
(** Parallel [Array.init].  [f] must depend only on its index. *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map] with deterministic result ordering. *)

val parallel_init_rng : ?grain:int -> t -> rng:Prng.t -> int -> (Prng.t -> int -> 'a) -> 'a array
(** [parallel_init] where task [i] additionally receives its own stream,
    the [i]-th serial {!Prng.split} of [rng] (kept as a private table of
    {!Prng.split_seed}s drawn before any parallel execution).  The
    generator handed to [f] is a per-worker scratch generator reseeded
    for each task: it is only valid for the duration of the call and
    must not be retained. *)

val parallel_floats_rng :
  ?grain:int -> t -> rng:Prng.t -> int -> (Prng.t -> int -> float) -> float array
(** [parallel_init_rng] into an unboxed float array. *)
