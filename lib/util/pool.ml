(* A parallel execution layer: a fixed set of worker domains over which
   iteration spaces are scheduled in contiguous grains.  Each worker owns a
   static contiguous share of [0, n); within its share it claims one grain
   at a time through an atomic cursor, and a worker that drains its own
   share steals trailing grains from the other workers' cursors.  Results
   are always written back by index, so the execution order (and therefore
   the stealing) cannot be observed in the results — pooled runs stay
   bit-identical to serial ones at every pool size. *)

type t = {
  size : int;
  mutex : Mutex.t;
  ready : Condition.t;
  finished : Condition.t;
  mutable job : (int -> unit) option;
  mutable generation : int;
  mutable pending : int;
  mutable stop : bool;
  busy : bool Atomic.t;
  mutable workers : unit Domain.t list;
}

let size t = t.size

(* Instrumentation seam.  The telemetry library sits above this one in the
   dependency order (it needs Texttable), so it cannot be called directly;
   instead it installs hooks here at its own module-initialisation time.
   With no hook installed the cost is one atomic load per pool run/chunk. *)
module Hooks = struct
  type t = {
    run : size:int -> serialized:bool -> unit;
    chunk : size:int -> slot:int -> victim:int -> lo:int -> hi:int -> (unit -> unit) -> unit;
  }

  let installed : t option Atomic.t = Atomic.make None
  let install t = Atomic.set installed (Some t)

  let note_run ~size ~serialized =
    match Atomic.get installed with
    | None -> ()
    | Some h -> h.run ~size ~serialized

  let note_chunk ~size ~slot ~victim ~lo ~hi f =
    match Atomic.get installed with
    | None -> f ()
    | Some h -> h.chunk ~size ~slot ~victim ~lo ~hi f
end

(* Set on every worker domain a pool spawns (never on a caller). *)
let worker_key = Domain.DLS.new_key (fun () -> false)
let on_worker () = Domain.DLS.get worker_key

(* Each worker domain owns a fixed slot (1 .. size-1); the caller of [run]
   acts as slot 0.  Workers sleep on [ready] until a new generation is
   published, run the job for their slot, then report on [finished]. *)
let spawn_worker pool slot =
  Domain.spawn (fun () ->
      Domain.DLS.set worker_key true;
      let rec loop last_generation =
        Mutex.lock pool.mutex;
        while (not pool.stop) && pool.generation = last_generation do
          Condition.wait pool.ready pool.mutex
        done;
        if pool.stop then Mutex.unlock pool.mutex
        else begin
          let generation = pool.generation in
          let job = Option.get pool.job in
          Mutex.unlock pool.mutex;
          job slot;
          Mutex.lock pool.mutex;
          pool.pending <- pool.pending - 1;
          if pool.pending = 0 then Condition.broadcast pool.finished;
          Mutex.unlock pool.mutex;
          loop generation
        end
      in
      loop 0)

let live_pools : t list ref = ref []
let live_mutex = Mutex.create ()

let shutdown pool =
  Mutex.lock pool.mutex;
  let was_stopped = pool.stop in
  pool.stop <- true;
  Condition.broadcast pool.ready;
  Mutex.unlock pool.mutex;
  if not was_stopped then begin
    List.iter Domain.join pool.workers;
    pool.workers <- [];
    Mutex.lock live_mutex;
    live_pools := List.filter (fun p -> p != pool) !live_pools;
    Mutex.unlock live_mutex
  end

let () = at_exit (fun () ->
    let pools = Mutex.protect live_mutex (fun () -> !live_pools) in
    List.iter shutdown pools)

let create ?size:(requested = Domain.recommended_domain_count ()) () =
  let size = max 1 requested in
  let pool =
    { size;
      mutex = Mutex.create ();
      ready = Condition.create ();
      finished = Condition.create ();
      job = None;
      generation = 0;
      pending = 0;
      stop = false;
      busy = Atomic.make false;
      workers = [] }
  in
  if size > 1 then begin
    pool.workers <- List.init (size - 1) (fun i -> spawn_worker pool (i + 1));
    Mutex.lock live_mutex;
    live_pools := pool :: !live_pools;
    Mutex.unlock live_mutex
  end;
  pool

(* The pool of one: it spawns nothing, and every entry point runs inline
   on it, so any number of domains may share it. *)
let serial = create ~size:1 ()

(* Per-slot lazy state: a slot never runs two chunks concurrently and
   always reads its own cell, so plain (non-atomic) cells at distinct
   indices are race-free; the pool join publishes the writes. *)
let per_slot t make =
  let cells = Array.make t.size None in
  fun slot ->
    match cells.(slot) with
    | Some v -> v
    | None ->
      let v = make () in
      cells.(slot) <- Some v;
      v

(* Per-domain lazy state keyed by length.  A hit is one table probe and
   allocates nothing ([find] raising on a miss, not [find_opt] boxing). *)
let per_domain make =
  let key = Domain.DLS.new_key (fun () -> Hashtbl.create 4) in
  fun n ->
    let tbl = Domain.DLS.get key in
    match Hashtbl.find tbl n with
    | v -> v
    | exception Not_found ->
      let v = make n in
      Hashtbl.add tbl n v;
      v

let default_size () =
  match Sys.getenv_opt "MSOC_DOMAINS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let default_pool = lazy (create ~size:(default_size ()) ())
let get_default () = Lazy.force default_pool

(* Run [f 0], ..., [f (size-1)] concurrently, the caller executing slot 0;
   only [parallel_iter_grained] calls it, and never on a pool of one.
   Re-entrant and concurrent calls degrade to serial execution in the
   calling domain, so pooled code may freely call pooled code. *)
let run pool f =
  if pool.stop then invalid_arg "Pool.run: pool is shut down";
  if not (Atomic.compare_and_set pool.busy false true) then begin
    Hooks.note_run ~size:pool.size ~serialized:true;
    for slot = 0 to pool.size - 1 do
      f slot
    done
  end
  else begin
    Hooks.note_run ~size:pool.size ~serialized:false;
    let error = Atomic.make None in
    let guarded slot =
      try f slot
      with e ->
        let backtrace = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set error None (Some (e, backtrace)))
    in
    Mutex.lock pool.mutex;
    pool.job <- Some guarded;
    pool.generation <- pool.generation + 1;
    pool.pending <- pool.size - 1;
    Condition.broadcast pool.ready;
    Mutex.unlock pool.mutex;
    guarded 0;
    Mutex.lock pool.mutex;
    while pool.pending > 0 do
      Condition.wait pool.finished pool.mutex
    done;
    pool.job <- None;
    Mutex.unlock pool.mutex;
    Atomic.set pool.busy false;
    match Atomic.get error with
    | Some (e, backtrace) -> Printexc.raise_with_backtrace e backtrace
    | None -> ()
  end

(* Contiguous share of [0, n) for worker [slot] out of [workers]; shares
   differ in size by at most one and concatenate, in slot order, to the
   whole range — this is what makes pooled results order-deterministic. *)
let chunk ~n ~workers slot =
  let base = n / workers and extra = n mod workers in
  let lo = (slot * base) + min slot extra in
  let hi = lo + base + (if slot < extra then 1 else 0) in
  (lo, hi)

(* Grains per worker share when the caller gives no cost hint: enough
   slack for stealing to level an uneven tail without flooding the atomic
   cursors (or the telemetry) with micro-chunks. *)
let default_grains_per_worker = 8

let default_grain ~n ~workers =
  max 1 ((n + (workers * default_grains_per_worker) - 1) / (workers * default_grains_per_worker))

(* Grain-aware scheduling with work stealing.  Worker [slot] owns the
   contiguous share [chunk ~n ~workers slot] and claims [grain]-sized
   sub-ranges of it through its atomic cursor; when its own share is
   drained it scans the other workers' cursors (cyclically from its own
   slot) and steals their remaining grains the same way.  [f] only ever
   sees disjoint [lo, hi) ranges covering [0, n) exactly once; because
   results are written by index, the claim order is unobservable and the
   determinism contract is preserved.  The one inline rule: on a pool of
   one, or when the range is at most one grain, the caller runs the
   whole range as slot 0 — no worker wakes, no hook fires. *)
let parallel_iter_grained pool ~n ?grain ~f () =
  let workers = pool.size in
  let grain =
    match grain with
    | Some g -> max 1 g
    | None -> default_grain ~n ~workers
  in
  if workers = 1 || n <= grain then (if n > 0 then f ~slot:0 ~lo:0 ~hi:n)
  else begin
    let cursors =
      Array.init workers (fun slot -> Atomic.make (fst (chunk ~n ~workers slot)))
    in
    let limits = Array.init workers (fun slot -> snd (chunk ~n ~workers slot)) in
    run pool (fun slot ->
        let drain victim =
          let hi_v = limits.(victim) in
          let continue = ref true in
          while !continue do
            let lo = Atomic.fetch_and_add cursors.(victim) grain in
            if lo >= hi_v then continue := false
            else begin
              let hi = min (lo + grain) hi_v in
              Hooks.note_chunk ~size:workers ~slot ~victim ~lo ~hi (fun () -> f ~slot ~lo ~hi)
            end
          done
        in
        drain slot;
        for d = 1 to workers - 1 do
          drain ((slot + d) mod workers)
        done)
  end

(* [Array.init] by index, each index written once by [write ~slot]. *)
let collect ?grain pool n write =
  let results = Array.make (max 0 n) None in
  parallel_iter_grained pool ~n ?grain
    ~f:(fun ~slot ~lo ~hi ->
      for i = lo to hi - 1 do
        results.(i) <- Some (write ~slot i)
      done)
    ();
  Array.map Option.get results

let parallel_init ?grain pool n f = collect ?grain pool n (fun ~slot:_ i -> f i)

let parallel_map pool f input = parallel_init pool (Array.length input) (fun i -> f input.(i))

(* Per-task generator streams, drawn serially BEFORE any parallel
   execution: task [i]'s stream is named by the [i]-th raw draw of [rng]
   (Prng.split_seed, = the [i]-th serial Prng.split), so it depends only
   on the parent state and [i], never on the pool size or scheduling.
   The seed table stores n unboxed seeds instead of n generator records;
   [stream ~slot i] reseeds the slot's scratch generator for task [i] (a
   copy of [rng]: its state is overwritten before every use, and a copy
   costs no seeding). *)
let streams pool ~rng n =
  let seeds = Float.Array.create (max 0 n) in
  for i = 0 to n - 1 do
    Float.Array.unsafe_set seeds i (Int64.float_of_bits (Prng.split_seed rng))
  done;
  let scratch = Array.init pool.size (fun _ -> Prng.copy rng) in
  fun ~slot i ->
    let g = scratch.(slot) in
    Prng.reseed g (Int64.bits_of_float (Float.Array.unsafe_get seeds i));
    g

let parallel_init_rng ?grain pool ~rng n f =
  let stream = streams pool ~rng n in
  collect ?grain pool n (fun ~slot i -> f (stream ~slot i) i)

let parallel_floats_rng ?grain pool ~rng n f =
  let stream = streams pool ~rng n in
  let out = Array.make (max 0 n) 0.0 in
  parallel_iter_grained pool ~n ?grain
    ~f:(fun ~slot ~lo ~hi ->
      for i = lo to hi - 1 do
        out.(i) <- f (stream ~slot i) i
      done)
    ();
  out

let with_pool ?size f =
  let pool = create ?size () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
