(* The msoc daemon: a Unix-domain-socket service that executes plan /
   measure / faultsim / montecarlo / schedule requests on the shared
   domain pool, behind a bounded queue with explicit backpressure, a
   single-flight result cache and a request observability plane threaded
   through Msoc_obs.

   Threading model — one acceptor, K executors, plus the pool:

   - the {e acceptor} (the domain calling [run]) owns every socket.  It
     multiplexes accept + reads + response writes through one select
     loop, parses request lines, and admits, rejects or answers each
     one on the spot.  Admission control is class-aware: ping/metrics
     are {e cheap}, everything that computes is {e heavy}, and the
     heavy class has its own queued-jobs cap below the queue capacity,
     so a burst of sweeps can never occupy every slot — a cheap probe
     always finds queue space.  The acceptor also probes the result
     cache (pure verbs only) and answers hits directly, without
     touching the queue.
   - {e K executors} ([--executors], default = pool size) pop the one
     shared [Workq].  Requests no longer serialize behind a single
     domain: a heavy sweep occupies one executor while cheap requests
     flow through the others.  Concurrent pool use is safe by the
     pool's own contract — the owner runs grained-parallel, everyone
     else degrades to serial in their own domain — and both modes are
     bit-identical, so answers do not depend on which executor served
     them.  Finished responses travel back over a mutex-guarded queue;
     a self-pipe byte wakes the select loop; the access-log writer is
     mutex-guarded so lines never interleave.
   - {e single flight}: a compute body is a pure function of
     [Protocol.cache_key], so the in-flight table holds one job per key
     from admission until its result is published.  Admission probes the
     cache, then joins the in-flight job for the key, and only then
     queues a new one; completion fills the cache, unregisters the key
     and takes the waiter list.  Both steps hold [flight_mutex], so a
     duplicate always finds either the in-flight job or the cached body,
     and every waiter receives the one rendered body.  A request asking
     for a trace bypasses both: its export must describe an execution of
     its own.

   Observability: Obs is the only telemetry store, with one rule at every
   executor count.  A request's trace is its executor's Obs generation —
   the executor's sink plus the pool-worker sinks that joined its runs —
   and once the request is answered and its trace exported, the executor
   calls [Obs.reset_domain], which folds that generation's counts into
   Obs's lifetime store.  The server records its own series (requests by
   verb and status, latency, queue wait, shared executions) into the
   lifetime store as they happen, and copies its gauges and the cache
   and queue totals there when a scrape runs; the [metrics] body is
   [Obs.to_prometheus ()]. *)

module Pool = Msoc_util.Pool
module Workq = Msoc_util.Workq
module Obs = Msoc_obs.Obs
module Json = Msoc_obs.Json

type config = {
  socket_path : string;
  queue_capacity : int;
  executors : int option;  (* [None] means the pool size *)
  cache_size : int;        (* 0 disables the result cache *)
  access_log : string option;
  metrics_out : string option;
  pool : Pool.t option;  (* [None] means [Pool.get_default ()] *)
}

let config ?(queue_capacity = 64) ?executors ?(cache_size = 256) ?access_log
    ?metrics_out ?pool socket_path =
  { socket_path; queue_capacity; executors; cache_size; access_log; metrics_out;
    pool }

(* ------------------------------------------------------------------ *)
(* Weight classes: admission control keeps the heavy sweeps from       *)
(* starving the cheap probes.                                          *)
(* ------------------------------------------------------------------ *)

type weight = Cheap | Heavy

let weight_of_verb = function
  | Protocol.Ping | Protocol.Metrics -> Cheap
  | Protocol.Plan | Protocol.Measure | Protocol.Faultsim | Protocol.Montecarlo
  | Protocol.Schedule | Protocol.Sleep ->
    Heavy

let weight_name = function Cheap -> "cheap" | Heavy -> "heavy"

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

(* One admitted client request waiting for a result. *)
type waiter = { w_conn : int; w_trace_id : string; w_enqueued_ns : int64 }

(* One execution: the leader's request, plus the duplicates that joined
   it while it was in flight. *)
type job = {
  j_req : Protocol.request;
  j_key : string option;  (* [Some] exactly while registered in [inflight] *)
  j_class : weight;
  j_leader : waiter;
  mutable j_joiners : waiter list;  (* reverse arrival order; flight_mutex *)
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stop : bool Atomic.t;
  queue : job Workq.t;
  executors : int;
  cache : Verbs.cache option;
  heavy_cap : int;
  (* queued jobs per class: incremented at admission, decremented at
     dequeue — the admission-control view of queue occupancy *)
  heavy_queued : int Atomic.t;
  cheap_queued : int Atomic.t;
  (* in-flight jobs by [Protocol.cache_key]; [flight_mutex] guards it,
     every [j_joiners] mutation, and each cache probe and fill that
     must agree with it *)
  inflight : (string, job) Hashtbl.t;
  flight_mutex : Mutex.t;
  executing : int Atomic.t;  (* dequeued, not yet answered *)
  responses : (int * string) Queue.t;
  responses_mutex : Mutex.t;
  access : out_channel option;
  access_mutex : Mutex.t;
  next_trace : int Atomic.t;
  served : int Atomic.t;
  session : string;
  pool : Pool.t;
}

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let create cfg =
  (* validate before touching the filesystem: a rejected config must
     neither unlink a live daemon's socket nor leak descriptors *)
  let queue = Workq.create ~capacity:cfg.queue_capacity in
  let pool = match cfg.pool with Some p -> p | None -> Pool.get_default () in
  let executors =
    match cfg.executors with
    | Some k ->
      if k < 1 then invalid_arg "Server.create: executors must be at least 1";
      k
    | None -> Pool.size pool
  in
  (* the access log opens before the socket path is touched and is
     emptied only once the socket is bound, and a step that fails closes
     everything opened before it: a bad log or socket path replaces or
     empties no file and leaks no descriptor *)
  let access =
    Option.map (fun file -> open_out_gen [ Open_wronly; Open_creat ] 0o644 file) cfg.access_log
  in
  let undo fds e =
    List.iter close_fd fds;
    Option.iter close_out_noerr access;
    raise e
  in
  let listen_fd =
    try Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 with e -> undo [] e
  in
  let wake_r, wake_w = try Unix.pipe ~cloexec:true () with e -> undo [ listen_fd ] e in
  (try
     (try Unix.unlink cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen listen_fd 64;
     Unix.set_nonblock listen_fd;
     Unix.set_nonblock wake_r;
     (* a log that is not a regular file (a pipe, a tty) has nothing to empty *)
     Option.iter
       (fun oc ->
         try Unix.ftruncate (Unix.descr_of_out_channel oc) 0 with Unix.Unix_error _ -> ())
       access
   with e -> undo [ listen_fd; wake_r; wake_w ] e);
  { cfg;
    listen_fd;
    wake_r;
    wake_w;
    stop = Atomic.make false;
    queue;
    executors;
    cache = Verbs.create_cache ~size:cfg.cache_size;
    heavy_cap = max 1 (cfg.queue_capacity * 3 / 4);
    heavy_queued = Atomic.make 0;
    cheap_queued = Atomic.make 0;
    inflight = Hashtbl.create 16;
    flight_mutex = Mutex.create ();
    executing = Atomic.make 0;
    responses = Queue.create ();
    responses_mutex = Mutex.create ();
    access;
    access_mutex = Mutex.create ();
    next_trace = Atomic.make 0;
    served = Atomic.make 0;
    session =
      Printf.sprintf "%x%04x" (Unix.getpid ())
        (int_of_float (Float.rem (Unix.gettimeofday () *. 1e3) 65536.0));
    pool }

let fresh_trace_id t =
  Printf.sprintf "%s-%06d" t.session (Atomic.fetch_and_add t.next_trace 1)

(* Async-signal-safe enough for an OCaml [Signal_handle] (handlers run at
   safe points, not in real signal context) and callable from any
   domain: flip the flag, then poke the self-pipe so a sleeping select
   returns immediately. *)
let request_stop t =
  Atomic.set t.stop true;
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()

(* Every answered request, whoever answered it, is counted in Obs's
   lifetime store and logged.  [executor]: the executor slot that served
   the request, [-1] for requests the acceptor answered itself
   (rejections, cache hits). *)
let account t ~trace_id ~verb ~status ~queue_ns ~service_ns ~executor =
  Obs.Lifetime.count ~labels:[ ("verb", verb); ("status", status) ] "serve.requests";
  (* rejected requests never ran: only executed ones shape the latency
     and queue-wait distributions *)
  if String.equal status "ok" || String.equal status "error" then begin
    Obs.Lifetime.observe ~labels:[ ("verb", verb) ] "serve.latency_ns"
      (float_of_int service_ns);
    Obs.Lifetime.observe "serve.queue_wait_ns" (float_of_int queue_ns)
  end;
  Atomic.incr t.served;
  match t.access with
  | None -> ()
  | Some oc ->
    let b = Buffer.create 192 in
    Json.obj_to b
      [ ("ts", Json.num_exact (Unix.gettimeofday ()));
        ("trace_id", Json.str trace_id);
        ("verb", Json.str verb);
        ("status", Json.str status);
        ("queue_wait_ns", Json.int queue_ns);
        ("service_ns", Json.int service_ns);
        ("pool_size", Json.int (Pool.size t.pool));
        ("executor", Json.int executor) ];
    Mutex.lock t.access_mutex;
    output_string oc (Buffer.contents b);
    output_char oc '\n';
    flush oc;
    Mutex.unlock t.access_mutex

(* The [metrics] body.  The gauges and the cache and queue totals live
   in their own structures, so a scrape copies them into Obs's lifetime
   store first. *)
let scrape t =
  let hits, misses, evictions =
    match t.cache with Some c -> Verbs.cache_stats c | None -> (0, 0, 0)
  in
  List.iter
    (fun (name, total) -> Obs.Lifetime.set_total name total)
    [ ("serve.cache_hits", hits);
      ("serve.cache_misses", misses);
      ("serve.cache_evictions", evictions);
      ("serve.queue_accepted", Workq.accepted t.queue);
      ("serve.queue_rejected", Workq.rejected t.queue) ];
  List.iter
    (fun (name, labels, v) -> Obs.Lifetime.gauge ~labels name v)
    [ ("serve.inflight", [], Atomic.get t.executing);
      ("serve.queue_depth", [], Workq.length t.queue);
      ("serve.queue_capacity", [], Workq.capacity t.queue);
      ("serve.pool_size", [], Pool.size t.pool);
      ("serve.cache_size", [], t.cfg.cache_size);
      ("serve.executors", [], t.executors);
      ("serve.class_queued", [ ("class", "cheap") ], Atomic.get t.cheap_queued);
      ("serve.class_queued", [ ("class", "heavy") ], Atomic.get t.heavy_queued);
      ("serve.heavy_cap", [], t.heavy_cap) ];
  Obs.to_prometheus ()

(* ------------------------------------------------------------------ *)
(* Verb dispatch (executor domains).  Compute verbs live in [Verbs] —   *)
(* shared with the CLI, so daemon answers diff clean against offline    *)
(* runs; only the verbs that read daemon state are handled here.        *)
(* ------------------------------------------------------------------ *)

let dispatch t (req : Protocol.request) =
  match req.verb with
  | Protocol.Ping ->
    Printf.sprintf "pong: pool=%d executors=%d queue=%d/%d\n" (Pool.size t.pool)
      t.executors (Workq.length t.queue) (Workq.capacity t.queue)
  | Protocol.Sleep ->
    Obs.span "serve.execute" (fun () ->
        Unix.sleepf (float_of_int (max 0 req.sleep_ms) /. 1e3));
    Printf.sprintf "slept %d ms\n" (max 0 req.sleep_ms)
  | Protocol.Metrics ->
    let text = Obs.span "serve.execute" (fun () -> scrape t) in
    Obs.span "serve.serialize" (fun () -> text)
  | Protocol.Plan | Protocol.Measure | Protocol.Faultsim | Protocol.Montecarlo
  | Protocol.Schedule ->
    Verbs.run ~pool:t.pool req

(* ------------------------------------------------------------------ *)
(* Executor domains                                                    *)
(* ------------------------------------------------------------------ *)

let push_response t conn_id line =
  Mutex.lock t.responses_mutex;
  Queue.add (conn_id, line) t.responses;
  Mutex.unlock t.responses_mutex;
  try ignore (Unix.write t.wake_w (Bytes.make 1 '.') 0 1) with Unix.Unix_error _ -> ()

(* Completion: fill the cache (on success only), unregister the key and
   take the waiters in arrival order, under the same mutex as admission —
   a duplicate admitted after this step hits the cache instead of
   joining.  A failed job frees its key too, so the next duplicate
   recomputes. *)
let publish t job status body =
  Mutex.protect t.flight_mutex (fun () ->
      (match (status, t.cache) with
      | Protocol.Ok_, Some c -> Verbs.cache_add c job.j_req body
      | _ -> ());
      Option.iter (Hashtbl.remove t.inflight) job.j_key;
      job.j_leader :: List.rev job.j_joiners)

let executor_loop t slot =
  let rec loop () =
    match Workq.pop t.queue with
    | None -> ()
    | Some job ->
      (match job.j_class with
      | Heavy -> Atomic.decr t.heavy_queued
      | Cheap -> Atomic.decr t.cheap_queued);
      Atomic.incr t.executing;
      let t_deq = Obs.now_ns () in
      let leader = job.j_leader in
      let root =
        Obs.start_span "serve.request"
          ~args:
            [ ("verb", Protocol.verb_name job.j_req.Protocol.verb);
              ("trace_id", leader.w_trace_id) ]
      in
      Obs.record_span "serve.queue_wait" ~start_ns:leader.w_enqueued_ns ~stop_ns:t_deq;
      let status, body =
        match dispatch t job.j_req with
        | body -> (Protocol.Ok_, body)
        (* a verb's own message goes out as is, as the CLI prints it *)
        | exception Failure msg -> (Protocol.Failed, msg)
        | exception e -> (Protocol.Failed, Printexc.to_string e)
      in
      Obs.stop_span root;
      let waiters = publish t job status body in
      let t_done = Obs.now_ns () in
      if job.j_key <> None then begin
        let size = List.length waiters in
        Obs.Lifetime.observe "serve.batch_size" (float_of_int size);
        if size > 1 then begin
          Obs.Lifetime.count "serve.coalesced_batches";
          Obs.Lifetime.count ~by:size "serve.batched"
        end
      end;
      (* a traced job never entered the in-flight table, so its leader is
         its only waiter *)
      let trace_export = if job.j_req.Protocol.trace then Some (Obs.jsonl ()) else None in
      (* the request's trace is built: fold its generation (this domain's
         sink and the pool workers that followed it) into the lifetime
         store, before any waiter can see its answer and scrape *)
      Obs.reset_domain ();
      let verb = Protocol.verb_name job.j_req.Protocol.verb in
      let status_name = Protocol.status_name status in
      List.iter
        (fun w ->
          (* queued until dequeue, served from then on; a joiner that
             arrived mid-execution never queued, and its own wait is its
             service time *)
          let start = Int64.max t_deq w.w_enqueued_ns in
          let queue_ns = Int64.to_int (Int64.sub start w.w_enqueued_ns) in
          let service_ns = Int64.to_int (Int64.sub t_done start) in
          account t ~trace_id:w.w_trace_id ~verb ~status:status_name ~queue_ns ~service_ns
            ~executor:slot;
          let response =
            { Protocol.status;
              trace_id = w.w_trace_id;
              verb;
              body;
              queue_ns;
              service_ns;
              pool_size = Pool.size t.pool;
              trace_export }
          in
          push_response t w.w_conn (Protocol.response_to_json response))
        waiters;
      Atomic.decr t.executing;
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Acceptor: select loop over listen socket, connections, self-pipe     *)
(* ------------------------------------------------------------------ *)

type conn = { c_fd : Unix.file_descr; c_buf : Buffer.t }

let write_all fd s =
  let bytes = Bytes.of_string s in
  let n = Bytes.length bytes in
  let rec go off =
    if off < n then begin
      let w =
        try Unix.write fd bytes off (n - off)
        with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> 0
      in
      go (off + w)
    end
  in
  go 0

(* Responses are written blocking (framing is a handful of KB; a trace
   export some hundreds): the fd's nonblocking flag is dropped for the
   write and restored after, so reads keep multiplexing. *)
let write_response conns conn_id line =
  match Hashtbl.find_opt conns conn_id with
  | None -> () (* client hung up before its answer was ready *)
  | Some c ->
    (try
       Unix.clear_nonblock c.c_fd;
       write_all c.c_fd (line ^ "\n");
       Unix.set_nonblock c.c_fd
     with Unix.Unix_error _ ->
       close_fd c.c_fd;
       Hashtbl.remove conns conn_id)

let flush_responses t conns =
  let rec go () =
    let next =
      Mutex.lock t.responses_mutex;
      let r = if Queue.is_empty t.responses then None else Some (Queue.pop t.responses) in
      Mutex.unlock t.responses_mutex;
      r
    in
    match next with
    | None -> ()
    | Some (conn_id, line) ->
      write_response conns conn_id line;
      go ()
  in
  go ()

(* A request answered without ever reaching an executor: a parse error,
   the admission control pushing back, or a result-cache hit.  Still
   logged, still counted. *)
let respond_immediately t conns conn_id ~status ~verb ?(service_ns = 0) ~body () =
  let trace_id = fresh_trace_id t in
  let status_name = Protocol.status_name status in
  account t ~trace_id ~verb ~status:status_name ~queue_ns:0 ~service_ns ~executor:(-1);
  let response =
    { Protocol.status;
      trace_id;
      verb;
      body;
      queue_ns = 0;
      service_ns;
      pool_size = Pool.size t.pool;
      trace_export = None }
  in
  write_response conns conn_id (Protocol.response_to_json response)

type admission = Hit of string | Admitted | Rejected of string

(* Admission of a parsed request, under [flight_mutex] so that it and
   [publish] see one consistent state, in order:
   1. result cache (cacheable verbs, no trace asked): answer the hit on
      the spot — a cached body is byte-identical to a cold run by the
      cache layer's contract, and it never occupies a queue slot;
   2. join the in-flight job for the same key, again without a slot;
   3. class cap, then queue push and registration; either refusal is a
      structured [overloaded] reply naming what was exhausted. *)
let admit t conns conn_id (req : Protocol.request) =
  let t0 = Obs.now_ns () in
  let key = if req.Protocol.trace then None else Protocol.cache_key req in
  let wclass = weight_of_verb req.Protocol.verb in
  let class_queued =
    match wclass with Heavy -> t.heavy_queued | Cheap -> t.cheap_queued
  in
  let class_cap =
    match wclass with Heavy -> t.heavy_cap | Cheap -> t.cfg.queue_capacity
  in
  let waiter () = { w_conn = conn_id; w_trace_id = fresh_trace_id t; w_enqueued_ns = t0 } in
  let outcome =
    Mutex.protect t.flight_mutex (fun () ->
        let cached =
          match (key, t.cache) with Some _, Some c -> Verbs.cache_find c req | _ -> None
        in
        match cached with
        | Some body -> Hit body
        | None ->
          (match Option.bind key (Hashtbl.find_opt t.inflight) with
          | Some job ->
            job.j_joiners <- waiter () :: job.j_joiners;
            Admitted
          | None when Atomic.get class_queued >= class_cap ->
            Rejected
              (Printf.sprintf
                 "server overloaded: %d %s request(s) queued (class cap %d, queue capacity %d)"
                 (Atomic.get class_queued) (weight_name wclass) class_cap
                 t.cfg.queue_capacity)
          | None ->
            let job =
              { j_req = req; j_key = key; j_class = wclass; j_leader = waiter ();
                j_joiners = [] }
            in
            Atomic.incr class_queued;
            if Workq.try_push t.queue job then begin
              Option.iter (fun k -> Hashtbl.replace t.inflight k job) key;
              Admitted
            end
            else begin
              Atomic.decr class_queued;
              Rejected
                (Printf.sprintf "server overloaded: work queue full (capacity %d)"
                   (Workq.capacity t.queue))
            end))
  in
  let verb = Protocol.verb_name req.Protocol.verb in
  match outcome with
  | Admitted -> ()
  | Hit body ->
    let service_ns = Int64.to_int (Int64.sub (Obs.now_ns ()) t0) in
    respond_immediately t conns conn_id ~status:Protocol.Ok_ ~verb ~service_ns ~body ()
  | Rejected body ->
    respond_immediately t conns conn_id ~status:Protocol.Overloaded ~verb ~body ()

let handle_line t conns conn_id line =
  if String.trim line <> "" then begin
    match Protocol.request_of_json line with
    | Error msg ->
      respond_immediately t conns conn_id ~status:Protocol.Failed ~verb:"invalid"
        ~body:msg ()
    | Ok req -> admit t conns conn_id req
  end

let drop_conn conns conn_id c =
  close_fd c.c_fd;
  Hashtbl.remove conns conn_id

(* [chunk] is the acceptor's one read buffer: [split_lines] consumes it
   before the next read. *)
let handle_readable t conns chunk conn_id c =
  let n =
    try Unix.read c.c_fd chunk 0 (Bytes.length chunk)
    with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> -1
    | Unix.Unix_error _ -> 0
  in
  if n = 0 then drop_conn conns conn_id c
  else if n > 0 then begin
    Protocol.split_lines c.c_buf chunk n (handle_line t conns conn_id);
    (* a client that never sends a newline must not grow the daemon
       without bound; a failed write may already have dropped it *)
    if Buffer.length c.c_buf > Protocol.max_line_bytes && Hashtbl.mem conns conn_id then begin
      respond_immediately t conns conn_id ~status:Protocol.Failed ~verb:"invalid"
        ~body:
          (Printf.sprintf "request line exceeds %d bytes without a newline"
             Protocol.max_line_bytes)
        ();
      drop_conn conns conn_id c
    end
  end

let accept_all t conns next_conn =
  let rec go () =
    match Unix.accept ~cloexec:true t.listen_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      incr next_conn;
      Hashtbl.add conns !next_conn { c_fd = fd; c_buf = Buffer.create 512 };
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  in
  go ()

let drain_wake t =
  let junk = Bytes.create 256 in
  let rec go () =
    match Unix.read t.wake_r junk 0 (Bytes.length junk) with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  in
  go ()

let run t =
  (* a client closing mid-response must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Obs.enable ();
  Obs.reset ();
  (* the shared-execution counters are exported from the first scrape *)
  Obs.Lifetime.count ~by:0 "serve.batched";
  Obs.Lifetime.count ~by:0 "serve.coalesced_batches";
  let executors =
    List.init t.executors (fun slot -> Domain.spawn (fun () -> executor_loop t slot))
  in
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 16 in
  let next_conn = ref 0 in
  let chunk = Bytes.create 65536 in
  while not (Atomic.get t.stop) do
    let conn_fds = Hashtbl.fold (fun _ c acc -> c.c_fd :: acc) conns [] in
    let readable =
      match Unix.select (t.listen_fd :: t.wake_r :: conn_fds) [] [] 0.25 with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    if List.memq t.wake_r readable then drain_wake t;
    flush_responses t conns;
    if List.memq t.listen_fd readable then accept_all t conns next_conn;
    Hashtbl.fold (fun id c acc -> if List.memq c.c_fd readable then (id, c) :: acc else acc)
      conns []
    |> List.iter (fun (id, c) -> handle_readable t conns chunk id c)
  done;
  (* clean shutdown: stop admitting, drain the queue (close is
     end-of-stream, so already-admitted jobs still execute and answer
     their joiners), deliver the remaining responses, flush the final
     metrics snapshot *)
  close_fd t.listen_fd;
  Workq.close t.queue;
  List.iter Domain.join executors;
  flush_responses t conns;
  Hashtbl.iter (fun _ c -> close_fd c.c_fd) conns;
  Hashtbl.reset conns;
  (match t.cfg.metrics_out with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    output_string oc (scrape t);
    close_out oc);
  Option.iter close_out t.access;
  Printf.eprintf "serve: shutdown after %d request(s)\n%!" (Atomic.get t.served);
  Obs.disable ();
  Obs.reset ();
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
  close_fd t.wake_r;
  close_fd t.wake_w

let executors t = t.executors
