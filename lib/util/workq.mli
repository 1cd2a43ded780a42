(** Bounded multi-producer work queue with explicit backpressure.

    Producers use {!try_push}, which {e fails} (returns [false]) when the
    queue is full or closed instead of blocking or growing — the caller
    is expected to turn that into a structured "overloaded" reply.
    Consumers block in {!pop} until work arrives or the queue is closed
    and drained.

    Safe to use from any mix of domains, with any number of concurrent
    consumers: each item is delivered to exactly one popper, and
    {!close} is end-of-stream — already-queued items are still drained
    (once each) before every blocked consumer unblocks with [None]. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Number of items currently queued (a racy snapshot, suitable for a
    depth gauge). *)

val try_push : 'a t -> 'a -> bool
(** Enqueue without blocking.  [false] means the queue was full (already
    [capacity] items waiting) or closed; nothing was enqueued. *)

val pop : 'a t -> 'a option
(** Block until an item is available ([Some v]) or the queue has been
    closed and fully drained ([None]).  Items enqueued before {!close}
    are still delivered — close is end-of-stream, not abort. *)

val close : 'a t -> unit
(** Reject all future pushes and wake every blocked consumer.  Idempotent. *)

val accepted : 'a t -> int
(** Total pushes that succeeded since {!create}.  Every push attempt is
    counted in exactly one of {!accepted} and {!rejected}. *)

val rejected : 'a t -> int
(** Total pushes refused (full or closed) — the overload signal. *)
