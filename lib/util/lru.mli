(** Bounded LRU cache with string keys, safe to share across domains.

    Built for the synthesis result cache of [msoc serve]: the acceptor
    domain probes it on admission, executor domains fill it after a
    cold computation, and each metrics scrape copies the hit / miss /
    eviction counters into the telemetry store — all under one internal
    mutex, which is fine at request granularity (the values are whole
    rendered response bodies, not hot-path items).

    Recency is classic move-to-front on a doubly-linked list: {!find}
    bumps the entry, {!add} inserts at the front and evicts from the
    tail once [capacity] entries are resident. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1] — a disabled cache is
    represented by not having one, not by a zero-capacity instance. *)

val find : 'a t -> string -> 'a option
(** Lookup; bumps the entry to most-recently-used and counts a hit, or
    counts a miss. *)

val add : 'a t -> string -> 'a -> unit
(** Insert at most-recently-used.  Replacing an existing key is not an
    eviction; displacing the least-recently-used entry past capacity
    is. *)

val hits : 'a t -> int
val misses : 'a t -> int
val evictions : 'a t -> int
(** Monotonic counters since {!create}, for the
    [msoc_serve_cache_{hits,misses,evictions}_total] metric family. *)
