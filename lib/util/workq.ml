(* Bounded multi-producer work queue with explicit backpressure.

   The point of this queue is the [try_push] that FAILS: a server thread
   that cannot enqueue must tell its client "overloaded" immediately
   instead of buffering unbounded work or blocking its accept loop.  The
   consumer side blocks — a worker with nothing to do should sleep on
   the condition variable, not spin.

   All operations take the one mutex; the queue is meant for
   request-granularity traffic (thousands per second), not for the
   per-item hot paths [Pool] covers with atomics. *)

type 'a t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  items : 'a Queue.t;
  capacity : int;
  mutable closed : bool;
  (* overload accounting: every push attempt lands in exactly one of
     these, so accepted - popped items is the current depth and the
     rejection count is an overload signal exporters can scrape *)
  mutable accepted : int;
  mutable rejected : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Workq.create: capacity must be at least 1";
  { mutex = Mutex.create ();
    nonempty = Condition.create ();
    items = Queue.create ();
    capacity;
    closed = false;
    accepted = 0;
    rejected = 0 }

let capacity t = t.capacity

let length t =
  Mutex.lock t.mutex;
  let n = Queue.length t.items in
  Mutex.unlock t.mutex;
  n

let try_push t v =
  Mutex.lock t.mutex;
  let accepted = (not t.closed) && Queue.length t.items < t.capacity in
  if accepted then begin
    Queue.add v t.items;
    t.accepted <- t.accepted + 1;
    Condition.signal t.nonempty
  end
  else t.rejected <- t.rejected + 1;
  Mutex.unlock t.mutex;
  accepted

(* Blocks until an item is available or the queue is closed *and*
   drained: close is a graceful end-of-stream, not an abort, so items
   enqueued before the close are still delivered. *)
let pop t =
  Mutex.lock t.mutex;
  let rec wait () =
    match Queue.take_opt t.items with
    | Some v -> Some v
    | None ->
      if t.closed then None
      else begin
        Condition.wait t.nonempty t.mutex;
        wait ()
      end
  in
  let r = wait () in
  Mutex.unlock t.mutex;
  r

let close t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex

let accepted t =
  Mutex.lock t.mutex;
  let n = t.accepted in
  Mutex.unlock t.mutex;
  n

let rejected t =
  Mutex.lock t.mutex;
  let n = t.rejected in
  Mutex.unlock t.mutex;
  n
