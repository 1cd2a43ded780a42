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
    fine (the pool join publishes all writes to the caller). *)

type t

(** Instrumentation seam for the telemetry library (which sits above this
    one in the dependency order and installs its probes here at module
    initialisation).  With no hook installed, the overhead is one atomic
    load per pool run, per chunk and per steal. *)
module Hooks : sig
  type t = {
    run : size:int -> serialized:bool -> unit;
        (** Called once per {!val:run}; [serialized] is true when a
            re-entrant or concurrent call degraded to serial execution. *)
    chunk : size:int -> slot:int -> lo:int -> hi:int -> (unit -> unit) -> unit;
        (** Wraps the execution of one contiguous chunk; the hook MUST call
            the thunk exactly once, on the current domain. *)
    steal : size:int -> thief:int -> victim:int -> unit;
        (** Called when worker [thief] claims a grain from [victim]'s
            share, immediately before the corresponding [chunk] call. *)
    idle : size:int -> slot:int -> unit;
        (** Called once per worker slot per grained run, on the slot's own
            domain, when the slot has drained every cursor (its own share
            and all stealing victims) — from this point until the join the
            slot only waits.  Marks the start of the slot's tail idle time
            on a worker timeline. *)
  }

  val install : t -> unit
  (** Replace the installed hooks (last install wins). *)
end

val create : ?size:int -> unit -> t
(** [create ~size ()] spawns [size - 1] worker domains (the caller of a
    parallel operation acts as the remaining worker).  Default size:
    [Domain.recommended_domain_count ()].  A pool of size 1 spawns nothing
    and runs everything inline. *)

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

val run : t -> (int -> unit) -> unit
(** [run pool f] executes [f slot] for every worker slot [0 .. size-1]
    concurrently and waits for all of them; the caller runs slot 0.  The
    first exception raised by any slot is re-raised after all slots finish.
    Re-entrant calls (from inside a task) and concurrent calls from another
    domain degrade to serial execution in the calling domain. *)

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
    serial execution. *)

val parallel_init : ?grain:int -> t -> int -> (int -> 'a) -> 'a array
(** Parallel [Array.init].  [f] must depend only on its index. *)

val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map] with deterministic result ordering. *)

val split_streams : Prng.t -> int -> Prng.t array
(** [split_streams g n] derives [n] decorrelated generator streams from [g]
    by [n] serial {!Prng.split}s — stream [i] depends only on [g]'s state
    and [i], never on the pool size, which keeps pooled stochastic code
    bit-reproducible across pool sizes. *)

val split_seeds : Prng.t -> int -> floatarray
(** Flat variant of {!split_streams}: one unboxed 64-bit seed per stream
    (stored as a bit pattern), [seed_at] reads them back.  Stream [i]
    replayed through {!Prng.reseed} is bit-identical to
    [split_streams g n].(i), but a million-trial fan-out allocates one
    floatarray instead of a million generator records. *)

val seed_at : floatarray -> int -> int64

val parallel_init_rng : ?grain:int -> t -> rng:Prng.t -> int -> (Prng.t -> int -> 'a) -> 'a array
(** [parallel_init] where task [i] additionally receives its own pre-split
    stream ({!split_seeds}).  The generator handed to [f] is a per-worker
    scratch generator reseeded for each task: it is only valid for the
    duration of the call and must not be retained. *)

val parallel_floats_rng :
  ?grain:int -> t -> rng:Prng.t -> int -> (Prng.t -> int -> float) -> float array
