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

   Observability per request: with one executor the sinks are reset at
   dequeue and exports merge every domain (the PR-8 behaviour, pool
   workers included); with several executors each resets and exports
   only its own sink ([Obs.reset_domain] / [~scope:This_domain]), so
   concurrent requests cannot wipe or pollute each other's span trees.
   Service-level metrics survive the per-request reset in a registry
   owned by the server (counters by verb and status, log2-bucket
   latency and queue-wait histograms, shared-execution counters and
   batch sizes, gauges) and are appended to [Obs.to_prometheus] output by the
   [metrics] verb, together with the cache hit/miss/eviction counters
   and the work queue's accept/reject accounting. *)

module Pool = Msoc_util.Pool
module Workq = Msoc_util.Workq
module Obs = Msoc_obs.Obs
module Json = Msoc_obs.Json

type config = {
  socket_path : string;
  queue_capacity : int;
  executors : int option;  (* [None] means the pool size *)
  cache_size : int;        (* 0 disables the result cache *)
  heavy_cap : int option;  (* [None] means 3/4 of the queue capacity *)
  access_log : string option;
  metrics_out : string option;
  pool : Pool.t option;  (* [None] means [Pool.get_default ()] *)
}

let config ?(queue_capacity = 64) ?executors ?(cache_size = 256) ?heavy_cap ?access_log
    ?metrics_out ?pool socket_path =
  { socket_path; queue_capacity; executors; cache_size; heavy_cap; access_log; metrics_out;
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
(* Service-level metrics registry (survives the per-request Obs reset) *)
(* ------------------------------------------------------------------ *)

type lat_hist = { buckets : int array; mutable sum : float; mutable count : int }

let new_lat_hist () = { buckets = Array.make Obs.bucket_count 0; sum = 0.0; count = 0 }

let lat_observe h ns =
  let v = float_of_int ns in
  h.buckets.(Obs.bucket_index v) <- h.buckets.(Obs.bucket_index v) + 1;
  h.sum <- h.sum +. v;
  h.count <- h.count + 1

type metrics = {
  mm : Mutex.t;
  requests : (string * string, int ref) Hashtbl.t;  (* (verb, status) -> count *)
  latency : (string, lat_hist) Hashtbl.t;           (* per verb, service time *)
  queue_wait : lat_hist;
  inflight : int Atomic.t;
  batched : int ref;    (* requests answered by an execution shared with others *)
  batches : int ref;    (* executions with two or more waiters *)
  batch_size : lat_hist;  (* waiters per single-flight execution *)
}

let new_metrics () =
  { mm = Mutex.create ();
    requests = Hashtbl.create 16;
    latency = Hashtbl.create 16;
    queue_wait = new_lat_hist ();
    inflight = Atomic.make 0;
    batched = ref 0;
    batches = ref 0;
    batch_size = new_lat_hist () }

let record_request m ~verb ~status ~queue_ns ~service_ns =
  Mutex.lock m.mm;
  (match Hashtbl.find_opt m.requests (verb, status) with
  | Some r -> incr r
  | None -> Hashtbl.add m.requests (verb, status) (ref 1));
  (* rejected requests never ran: only executed ones shape the latency
     and queue-wait distributions *)
  if String.equal status "ok" || String.equal status "error" then begin
    (match Hashtbl.find_opt m.latency verb with
    | Some h -> lat_observe h service_ns
    | None ->
      let h = new_lat_hist () in
      lat_observe h service_ns;
      Hashtbl.add m.latency verb h);
    lat_observe m.queue_wait queue_ns
  end;
  Mutex.unlock m.mm

let record_batch m ~size =
  Mutex.lock m.mm;
  lat_observe m.batch_size size;
  if size > 1 then begin
    m.batches := !(m.batches) + 1;
    m.batched := !(m.batched) + size
  end;
  Mutex.unlock m.mm

(* Prometheus rendering for the registry: cumulative log2 buckets (only
   occupied ones — "le" stays increasing, scrape size stays small). *)
let prometheus_of_metrics m ~queue_depth ~queue_capacity ~pool_size =
  let b = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let float_label v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  in
  Mutex.lock m.mm;
  line "# TYPE msoc_serve_requests_total counter";
  Hashtbl.fold (fun k v acc -> (k, !v) :: acc) m.requests []
  |> List.sort compare
  |> List.iter (fun ((verb, status), n) ->
         line "msoc_serve_requests_total{verb=\"%s\",status=\"%s\"} %d" verb status n);
  let emit_hist name ~labels h =
    let label_set items =
      match items with [] -> "" | _ -> "{" ^ String.concat "," items ^ "}"
    in
    let with_le le = label_set (labels @ [ Printf.sprintf "le=\"%s\"" le ]) in
    let cumulative = ref 0 in
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          cumulative := !cumulative + c;
          let _, hi = Obs.bucket_bounds i in
          let le = if hi = infinity then "+Inf" else float_label hi in
          line "%s_bucket%s %d" name (with_le le) !cumulative
        end)
      h.buckets;
    (match
       Array.exists (fun i -> i > 0) h.buckets
       && snd (Obs.bucket_bounds (Obs.bucket_count - 1)) = infinity
       &&
       let last_nonzero = ref (-1) in
       Array.iteri (fun i c -> if c > 0 then last_nonzero := i) h.buckets;
       !last_nonzero = Obs.bucket_count - 1
     with
    | true -> () (* the occupied tail bucket was already +Inf *)
    | false -> line "%s_bucket%s %d" name (with_le "+Inf") h.count);
    line "%s_sum%s %s" name (label_set labels) (float_label h.sum);
    line "%s_count%s %d" name (label_set labels) h.count
  in
  if Hashtbl.length m.latency > 0 then begin
    line "# TYPE msoc_serve_latency_ns histogram";
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) m.latency []
    |> List.sort compare
    |> List.iter (fun (verb, h) ->
           emit_hist "msoc_serve_latency_ns" ~labels:[ Printf.sprintf "verb=\"%s\"" verb ] h)
  end;
  if m.queue_wait.count > 0 then begin
    line "# TYPE msoc_serve_queue_wait_ns histogram";
    emit_hist "msoc_serve_queue_wait_ns" ~labels:[] m.queue_wait
  end;
  line "# TYPE msoc_serve_batched_total counter";
  line "msoc_serve_batched_total %d" !(m.batched);
  line "# TYPE msoc_serve_coalesced_batches_total counter";
  line "msoc_serve_coalesced_batches_total %d" !(m.batches);
  if m.batch_size.count > 0 then begin
    line "# TYPE msoc_serve_batch_size histogram";
    emit_hist "msoc_serve_batch_size" ~labels:[] m.batch_size
  end;
  line "# TYPE msoc_serve_inflight gauge";
  line "msoc_serve_inflight %d" (Atomic.get m.inflight);
  line "# TYPE msoc_serve_queue_depth gauge";
  line "msoc_serve_queue_depth %d" queue_depth;
  line "# TYPE msoc_serve_queue_capacity gauge";
  line "msoc_serve_queue_capacity %d" queue_capacity;
  line "# TYPE msoc_serve_pool_size gauge";
  line "msoc_serve_pool_size %d" pool_size;
  Mutex.unlock m.mm;
  Buffer.contents b

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
  metrics : metrics;
  responses : (int * string) Queue.t;
  responses_mutex : Mutex.t;
  access : out_channel option;
  access_mutex : Mutex.t;
  next_trace : int Atomic.t;
  served : int Atomic.t;
  session : string;
  pool : Pool.t;
}

let create cfg =
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  let pool = match cfg.pool with Some p -> p | None -> Pool.get_default () in
  let executors =
    match cfg.executors with
    | Some k ->
      if k < 1 then invalid_arg "Server.create: executors must be at least 1";
      k
    | None -> Pool.size pool
  in
  { cfg;
    listen_fd;
    wake_r;
    wake_w;
    stop = Atomic.make false;
    queue = Workq.create ~capacity:cfg.queue_capacity;
    executors;
    cache = Verbs.create_cache ~size:cfg.cache_size;
    heavy_cap =
      (match cfg.heavy_cap with
      | Some cap ->
        if cap < 1 then invalid_arg "Server.create: heavy cap must be at least 1";
        cap
      | None -> max 1 (cfg.queue_capacity * 3 / 4));
    heavy_queued = Atomic.make 0;
    cheap_queued = Atomic.make 0;
    inflight = Hashtbl.create 16;
    flight_mutex = Mutex.create ();
    metrics = new_metrics ();
    responses = Queue.create ();
    responses_mutex = Mutex.create ();
    access =
      Option.map
        (fun file -> open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 file)
        cfg.access_log;
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

(* [executor]: the executor slot that served the request, [-1] for
   requests the acceptor answered itself (rejections, cache hits). *)
let log_access t ~trace_id ~verb ~status ~queue_ns ~service_ns ~executor =
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

let metrics_payload t =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let hits, misses, evictions =
    match t.cache with Some c -> Verbs.cache_stats c | None -> (0, 0, 0)
  in
  line "# TYPE msoc_serve_cache_hits_total counter";
  line "msoc_serve_cache_hits_total %d" hits;
  line "# TYPE msoc_serve_cache_misses_total counter";
  line "msoc_serve_cache_misses_total %d" misses;
  line "# TYPE msoc_serve_cache_evictions_total counter";
  line "msoc_serve_cache_evictions_total %d" evictions;
  line "# TYPE msoc_serve_cache_size gauge";
  line "msoc_serve_cache_size %d" t.cfg.cache_size;
  line "# TYPE msoc_serve_executors gauge";
  line "msoc_serve_executors %d" t.executors;
  line "# TYPE msoc_serve_queue_accepted_total counter";
  line "msoc_serve_queue_accepted_total %d" (Workq.accepted t.queue);
  line "# TYPE msoc_serve_queue_rejected_total counter";
  line "msoc_serve_queue_rejected_total %d" (Workq.rejected t.queue);
  line "# TYPE msoc_serve_class_queued gauge";
  line "msoc_serve_class_queued{class=\"cheap\"} %d" (Atomic.get t.cheap_queued);
  line "msoc_serve_class_queued{class=\"heavy\"} %d" (Atomic.get t.heavy_queued);
  line "# TYPE msoc_serve_heavy_cap gauge";
  line "msoc_serve_heavy_cap %d" t.heavy_cap;
  Obs.to_prometheus ()
  ^ prometheus_of_metrics t.metrics ~queue_depth:(Workq.length t.queue)
      ~queue_capacity:(Workq.capacity t.queue) ~pool_size:(Pool.size t.pool)
  ^ Buffer.contents b

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
    let text = Obs.span "serve.execute" (fun () -> metrics_payload t) in
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
      Atomic.incr t.metrics.inflight;
      let t_deq = Obs.now_ns () in
      (* fresh sink(s) per request so the exported span tree covers
         exactly this request and daemon memory stays bounded.  One
         executor: reset and export everything, pool workers included
         (no concurrent writer exists).  Several: strictly this
         domain's sink, so siblings' in-flight requests are untouched. *)
      let scope = if t.executors = 1 then Obs.All_domains else Obs.This_domain in
      if t.executors = 1 then Obs.reset () else Obs.reset_domain ();
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
        | exception e -> (Protocol.Failed, Printexc.to_string e)
      in
      Obs.stop_span root;
      let waiters = publish t job status body in
      let t_done = Obs.now_ns () in
      if job.j_key <> None then record_batch t.metrics ~size:(List.length waiters);
      (* a traced job never entered the in-flight table, so its leader is
         its only waiter *)
      let trace_export =
        Option.map
          (function
            | Protocol.Trace_jsonl -> Obs.jsonl ~scope ()
            | Protocol.Trace_chrome -> Obs.chrome_trace ~scope ()
            | Protocol.Trace_folded -> Obs.to_collapsed ~scope ())
          job.j_req.Protocol.trace
      in
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
          record_request t.metrics ~verb ~status:status_name ~queue_ns ~service_ns;
          log_access t ~trace_id:w.w_trace_id ~verb ~status:status_name ~queue_ns
            ~service_ns ~executor:slot;
          Atomic.incr t.served;
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
      Atomic.decr t.metrics.inflight;
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
       (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
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
  record_request t.metrics ~verb ~status:status_name ~queue_ns:0 ~service_ns;
  log_access t ~trace_id ~verb ~status:status_name ~queue_ns:0 ~service_ns
    ~executor:(-1);
  Atomic.incr t.served;
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
  let key = if req.Protocol.trace = None then Protocol.cache_key req else None in
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

let handle_readable t conns conn_id c =
  let chunk = Bytes.create 65536 in
  let n =
    try Unix.read c.c_fd chunk 0 (Bytes.length chunk)
    with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> -1
    | Unix.Unix_error _ -> 0
  in
  if n = 0 then begin
    (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
    Hashtbl.remove conns conn_id
  end
  else if n > 0 then Protocol.split_lines c.c_buf chunk n (handle_line t conns conn_id)

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
  let executors =
    List.init t.executors (fun slot -> Domain.spawn (fun () -> executor_loop t slot))
  in
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 16 in
  let next_conn = ref 0 in
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
    |> List.iter (fun (id, c) -> handle_readable t conns id c)
  done;
  (* clean shutdown: stop admitting, drain the queue (close is
     end-of-stream, so already-admitted jobs still execute and answer
     their joiners), deliver the remaining responses, flush the final
     metrics snapshot *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  Workq.close t.queue;
  List.iter Domain.join executors;
  flush_responses t conns;
  Hashtbl.iter (fun _ c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ()) conns;
  Hashtbl.reset conns;
  (match t.cfg.metrics_out with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    output_string oc (metrics_payload t);
    close_out oc);
  Option.iter close_out t.access;
  Printf.eprintf "serve: shutdown after %d request(s)\n%!" (Atomic.get t.served);
  Obs.disable ();
  Obs.reset ();
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()

let served t = Atomic.get t.served
let executors t = t.executors

(* ---- in-process harness (tests, bench load driver) ---- *)

type handle = { server : t; domain : unit Domain.t }

let start cfg =
  let server = create cfg in
  (* [create] has already bound and listened: clients may connect as
     soon as [start] returns, even if the loop hasn't scheduled yet *)
  { server; domain = Domain.spawn (fun () -> run server) }

let stop h =
  request_stop h.server;
  Domain.join h.domain
