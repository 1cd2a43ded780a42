(* Daemon tests: the bounded work queue's semantics (including
   multi-consumer delivery and accept/reject accounting under
   contention), the wire-protocol round trip and its strict field types,
   a cache key that covers every field a verb reads, queue-full and
   class-cap backpressure (a structured "overloaded" response, never a
   dropped connection), byte-identity of daemon answers with the offline
   CLI across pool and executor counts — cold, cached and joined — single
   flight (a duplicate shares a queued or running execution; a failed
   one frees its key), request lines split across reads, the metrics
   verb's Prometheus families (counters that only rise, at one executor
   and at two), a daemon that fails to start (bad config, access-log or
   socket path) leaving the file at its socket path and no descriptor,
   and the per-request trace export — the same at every executor count —
   round-tripping through the offline trace analyses.  The daemon runs in
   process, on a domain of its own ([with_server]). *)

module Workq = Msoc_util.Workq
module Pool = Msoc_util.Pool
module Trace = Msoc_obs.Trace
module Obs = Msoc_obs.Obs
module Protocol = Msoc_serve.Protocol
module Server = Msoc_serve.Server
module Client = Msoc_serve.Client
module Verbs = Msoc_serve.Verbs
module Topology = Msoc_analog.Topology
open Msoc_synth

let contains_sub text needle =
  let nl = String.length needle and tl = String.length text in
  let rec scan i =
    i + nl <= tl && (String.equal (String.sub text i nl) needle || scan (i + 1))
  in
  scan 0

let check_contains text needles =
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "output contains %S" needle) true
        (contains_sub text needle))
    needles

let socket_counter = ref 0

let temp_socket () =
  incr socket_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "msoc-test-%d-%d.sock" (Unix.getpid ()) !socket_counter)

(* The daemon in process: [Server.run] on a domain of its own, stopped
   and joined when [f] returns or raises.  [Server.create] has bound and
   listened before [f] runs, so clients may connect at once. *)
let with_server cfg f =
  let server = Server.create cfg in
  let domain = Domain.spawn (fun () -> Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop server;
      Domain.join domain)
    f

(* ---- bounded work queue ---- *)

let test_workq_bounds () =
  (match Workq.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 must be rejected");
  let q = Workq.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (Workq.capacity q);
  Alcotest.(check bool) "push 1" true (Workq.try_push q 1);
  Alcotest.(check bool) "push 2" true (Workq.try_push q 2);
  Alcotest.(check int) "length" 2 (Workq.length q);
  Alcotest.(check bool) "push to a full queue refused" false (Workq.try_push q 3);
  Alcotest.(check (option int)) "fifo head" (Some 1) (Workq.pop q);
  Alcotest.(check bool) "pop frees the slot" true (Workq.try_push q 3);
  Alcotest.(check (option int)) "fifo order kept" (Some 2) (Workq.pop q);
  Alcotest.(check (option int)) "late push delivered" (Some 3) (Workq.pop q);
  Alcotest.(check int) "empty" 0 (Workq.length q)

let test_workq_close () =
  let q = Workq.create ~capacity:4 in
  Alcotest.(check bool) "push before close" true (Workq.try_push q 7);
  Workq.close q;
  Workq.close q (* idempotent *);
  Alcotest.(check bool) "push after close refused" false (Workq.try_push q 8);
  (* close is end-of-stream, not abort: queued work still drains *)
  Alcotest.(check (option int)) "drains after close" (Some 7) (Workq.pop q);
  Alcotest.(check (option int)) "then end of stream" None (Workq.pop q)

let test_workq_cross_domain () =
  (* a blocked consumer is woken by a push from another domain, and by
     close when no more work is coming *)
  let q = Workq.create ~capacity:2 in
  let consumer =
    Domain.spawn (fun () ->
        let rec drain acc =
          match Workq.pop q with Some v -> drain (v :: acc) | None -> List.rev acc
        in
        drain [])
  in
  List.iter
    (fun v ->
      let rec push () = if not (Workq.try_push q v) then push () in
      push ())
    [ 1; 2; 3; 4; 5 ];
  Workq.close q;
  Alcotest.(check (list int)) "all items in order" [ 1; 2; 3; 4; 5 ]
    (Domain.join consumer)

(* Drain the queue from [n_consumers] domains until close; returns the
   per-consumer item lists (each in that consumer's pop order). *)
let drain_with q n_consumers =
  List.init n_consumers (fun _ ->
      Domain.spawn (fun () ->
          let rec drain acc =
            match Workq.pop q with Some v -> drain (v :: acc) | None -> List.rev acc
          in
          drain []))

let push_all_with_retry q items =
  List.iter
    (fun v ->
      let rec push () =
        if not (Workq.try_push q v) then begin
          Domain.cpu_relax ();
          push ()
        end
      in
      push ())
    items

let test_workq_multi_consumer () =
  (* K consumers draining one producer: every item is delivered exactly
     once regardless of K, and with K = 1 the FIFO order survives *)
  List.iter
    (fun n_consumers ->
      let q = Workq.create ~capacity:4 in
      let items = List.init 500 (fun i -> i) in
      let consumers = drain_with q n_consumers in
      push_all_with_retry q items;
      Workq.close q;
      let per_consumer = List.map Domain.join consumers in
      let consumed = List.concat per_consumer in
      Alcotest.(check (list int))
        (Printf.sprintf "no item lost or duplicated at %d consumer(s)" n_consumers)
        items
        (List.sort compare consumed);
      Alcotest.(check int)
        (Printf.sprintf "accepted matches deliveries at %d consumer(s)" n_consumers)
        (List.length items) (Workq.accepted q);
      if n_consumers = 1 then
        Alcotest.(check (list int)) "single consumer preserves FIFO order" items
          consumed)
    [ 1; 2; 4 ]

let test_workq_overload_accounting () =
  (* two producer domains hammering a capacity-2 queue with two consumers:
     accepted + rejected equals the exact number of try_push calls, and
     every accepted item is consumed exactly once *)
  let q = Workq.create ~capacity:2 in
  let per_producer = 400 in
  let consumers = drain_with q 2 in
  let producers =
    List.init 2 (fun p ->
        Domain.spawn (fun () ->
            let attempts = ref 0 in
            for v = 0 to per_producer - 1 do
              let item = (p * per_producer) + v in
              let rec push () =
                incr attempts;
                if not (Workq.try_push q item) then begin
                  Domain.cpu_relax ();
                  push ()
                end
              in
              push ()
            done;
            !attempts))
  in
  let attempts = List.fold_left ( + ) 0 (List.map Domain.join producers) in
  Workq.close q;
  let consumed = List.concat (List.map Domain.join consumers) in
  Alcotest.(check int) "every accepted item consumed once" (2 * per_producer)
    (List.length (List.sort_uniq compare consumed));
  Alcotest.(check int) "accepted counts the successes" (2 * per_producer)
    (Workq.accepted q);
  Alcotest.(check int) "accepted + rejected = attempts" attempts
    (Workq.accepted q + Workq.rejected q)

let prop_workq_exactly_once =
  QCheck.Test.make ~count:25
    ~name:"workq delivers every accepted item exactly once (any capacity/consumers)"
    QCheck.(triple (int_range 1 8) (int_range 0 120) (int_range 1 4))
    (fun (capacity, n_items, n_consumers) ->
      let q = Workq.create ~capacity in
      let items = List.init n_items (fun i -> i) in
      let consumers = drain_with q n_consumers in
      push_all_with_retry q items;
      Workq.close q;
      let consumed = List.concat (List.map Domain.join consumers) in
      List.sort compare consumed = items
      && Workq.accepted q = n_items
      && Workq.pop q = None)

(* ---- wire protocol ---- *)

let test_protocol_roundtrip () =
  let req =
    Protocol.request ~topology:"default" ~strategy:"nominal" ~seed:3 ~taps:5
      ~samples:128 ~trace:true Protocol.Faultsim
  in
  (match Protocol.request_of_json (Protocol.request_to_json req) with
  | Ok req' -> Alcotest.(check bool) "request round trips" true (req = req')
  | Error e -> Alcotest.failf "request rejected: %s" e);
  (* a bare verb is a complete request at the CLI defaults *)
  (match Protocol.request_of_json {|{"verb":"plan"}|} with
  | Ok req' ->
    Alcotest.(check bool) "bare plan equals the defaults" true
      (req' = Protocol.request Protocol.Plan)
  | Error e -> Alcotest.failf "minimal request rejected: %s" e);
  (* schedule carries its own fields through the wire *)
  let sched =
    Protocol.request ~soc:"narrow" ~restarts:3 ~iters:77 ~seed:9 Protocol.Schedule
  in
  (match Protocol.request_of_json (Protocol.request_to_json sched) with
  | Ok req' -> Alcotest.(check bool) "schedule request round trips" true (sched = req')
  | Error e -> Alcotest.failf "schedule request rejected: %s" e);
  (match Protocol.request_of_json {|{"verb":"schedule"}|} with
  | Ok req' ->
    Alcotest.(check bool) "bare schedule equals the defaults" true
      (req' = Protocol.request Protocol.Schedule)
  | Error e -> Alcotest.failf "minimal schedule request rejected: %s" e);
  (match Protocol.request_of_json {|{"verb":"frobnicate"}|} with
  | Ok _ -> Alcotest.fail "unknown verb must be rejected"
  | Error _ -> ());
  (match Protocol.request_of_json {|{"verb":"plan","trace":"interpretive-dance"}|} with
  | Ok _ -> Alcotest.fail "a non-boolean trace must be rejected"
  | Error _ -> ());
  (* a field of the wrong JSON type is an error naming it, never its
     default; an int field takes only integral numbers in int range *)
  List.iter
    (fun (line, field) ->
      match Protocol.request_of_json line with
      | Ok _ -> Alcotest.failf "%s must be rejected" line
      | Error e -> check_contains e [ Printf.sprintf "%S" field ])
    [ ({|{"verb":"faultsim","taps":"13"}|}, "taps");
      ({|{"verb":"faultsim","taps":5.9}|}, "taps");
      ({|{"verb":"faultsim","tones":"two"}|}, "tones");
      ({|{"verb":"faultsim","samples":1e30}|}, "samples");
      ({|{"verb":"faultsim","seed":null}|}, "seed");
      ({|{"verb":"plan","strategy":5}|}, "strategy");
      ({|{"verb":"plan","topology":["x"]}|}, "topology");
      ({|{"verb":"plan","trace":5}|}, "trace");
      ({|{"verb":7}|}, "verb") ];
  (match Protocol.request_of_json {|{"verb":"faultsim","taps":5.0,"colour":"blue"}|} with
  | Ok req' ->
    Alcotest.(check bool) "integral floats accepted, unknown fields ignored" true
      (req' = Protocol.request ~taps:5 Protocol.Faultsim)
  | Error e -> Alcotest.failf "well-typed request rejected: %s" e);
  let resp =
    { Protocol.status = Protocol.Overloaded;
      trace_id = "s-000001";
      verb = "plan";
      body = "server overloaded";
      queue_ns = 0;
      service_ns = 0;
      pool_size = 2;
      trace_export = None }
  in
  match Protocol.response_of_json (Protocol.response_to_json resp) with
  | Ok resp' -> Alcotest.(check bool) "response round trips" true (resp = resp')
  | Error e -> Alcotest.failf "response rejected: %s" e

(* ---- cache_key covers every field a verb reads ---- *)

(* One valid perturbation per request field, named as on the wire. *)
let perturbations : (string * (Protocol.request -> Protocol.request)) list =
  let flip r = if r.Protocol.strategy = "nominal" then "adaptive" else "nominal" in
  [ ("topology", fun r -> { r with Protocol.topology = "sigma-delta" });
    ("strategy", fun r -> { r with Protocol.strategy = flip r });
    ("seed", fun r -> { r with Protocol.seed = r.Protocol.seed + 1 });
    ("taps", fun r -> { r with Protocol.taps = r.Protocol.taps + 1 });
    ("input_bits", fun r -> { r with Protocol.input_bits = r.Protocol.input_bits + 1 });
    ("coeff_bits", fun r -> { r with Protocol.coeff_bits = r.Protocol.coeff_bits + 1 });
    ("samples", fun r -> { r with Protocol.samples = 2 * r.Protocol.samples });
    ("tones", fun r -> { r with Protocol.tones = 3 - r.Protocol.tones });
    ("soc", fun r -> { r with Protocol.soc = "narrow" });
    ("restarts", fun r -> { r with Protocol.restarts = r.Protocol.restarts + 1 });
    ("iters", fun r -> { r with Protocol.iters = r.Protocol.iters + 1 });
    ("trials", fun r -> { r with Protocol.trials = r.Protocol.trials + 1 });
    ("sleep_ms", fun r -> { r with Protocol.sleep_ms = r.Protocol.sleep_ms + 1 });
    ("trace", fun r -> { r with Protocol.trace = true }) ]

let test_cache_key_covers_reads () =
  (* the result cache and single flight both trust [cache_key]: perturbing
     every field outside a verb's key must leave its body unchanged, and
     perturbing any field inside it must change the key *)
  let wire_fields =
    match
      Msoc_obs.Json.parse
        (Protocol.request_to_json (Protocol.request ~trace:true Protocol.Plan))
    with
    | Msoc_obs.Json.Object fields -> List.filter (( <> ) "verb") (List.map fst fields)
    | _ -> Alcotest.fail "a request encodes as an object"
  in
  Alcotest.(check (list string)) "one perturbation per wire field" (List.sort compare wire_fields)
    (List.sort compare (List.map fst perturbations));
  Pool.with_pool ~size:1 @@ fun pool ->
  List.iter
    (fun ((base : Protocol.request), keyed) ->
      let verb = Protocol.verb_name base.verb in
      let key = Protocol.cache_key base in
      List.iter
        (fun field ->
          Alcotest.(check bool) (Printf.sprintf "%s: %s is in the key" verb field) true
            (Protocol.cache_key ((List.assoc field perturbations) base) <> key))
        keyed;
      let outside = List.filter (fun (f, _) -> not (List.mem f keyed)) perturbations in
      let perturbed = List.fold_left (fun r (_, p) -> p r) base outside in
      Alcotest.(check (option string)) (verb ^ ": the other fields leave the key alone") key
        (Protocol.cache_key perturbed);
      Alcotest.(check string) (verb ^ ": the other fields leave the body alone")
        (Verbs.run ~pool base) (Verbs.run ~pool perturbed))
    [ (Protocol.request Protocol.Plan, [ "topology"; "strategy" ]);
      (Protocol.request ~seed:3 Protocol.Measure, [ "topology"; "strategy"; "seed" ]);
      ( Protocol.request ~taps:5 ~input_bits:8 ~coeff_bits:6 ~samples:128 Protocol.Faultsim,
        [ "taps"; "input_bits"; "coeff_bits"; "samples"; "tones"; "seed" ] );
      (Protocol.request ~trials:200 Protocol.Montecarlo, [ "strategy"; "trials"; "seed" ]);
      ( Protocol.request ~restarts:2 ~iters:50 Protocol.Schedule,
        [ "soc"; "restarts"; "iters"; "seed" ] ) ];
  (* a separator inside a string value cannot forge another request's key *)
  List.iter
    (fun verb ->
      Alcotest.(check bool)
        (Protocol.verb_name verb ^ ": a|b,c and a,b|c get different keys")
        true
        (Protocol.cache_key (Protocol.request ~topology:"a|b" ~strategy:"c" verb)
        <> Protocol.cache_key (Protocol.request ~topology:"a" ~strategy:"b|c" verb)))
    [ Protocol.Plan; Protocol.Measure ]

(* ---- faultsim names its bad fields ---- *)

let test_faultsim_bad_fields () =
  (* out-of-range sizes fail before building, naming the field, instead of
     tripping an engine assertion or silently running another stimulus *)
  let base = Protocol.request ~taps:5 ~samples:128 Protocol.Faultsim in
  Pool.with_pool ~size:1 @@ fun pool ->
  List.iter
    (fun (field, req) ->
      match Verbs.run ~pool req with
      | _ -> Alcotest.failf "faultsim with a bad %s must fail" field
      | exception Failure msg -> check_contains msg [ field ])
    [ ("tones", { base with Protocol.tones = 0 });
      ("tones", { base with Protocol.tones = 3 });
      ("tones", { base with Protocol.tones = -1 });
      ("taps", { base with Protocol.taps = 0 });
      ("samples", { base with Protocol.samples = 7 });
      ("samples", { base with Protocol.samples = -5 });
      ("coeff_bits", { base with Protocol.coeff_bits = 1 });
      ("coeff_bits", { base with Protocol.coeff_bits = 31 });
      ("input_bits", { base with Protocol.input_bits = 1 });
      (* wider than the accumulator bound (sum |c|) * 2^(input_bits - 1)
         can hold in a native int *)
      ("input_bits", { base with Protocol.taps = 3; samples = 64; input_bits = 56 });
      ("input_bits", { base with Protocol.taps = 13; coeff_bits = 30; input_bits = 32 });
      ("input_bits", { base with Protocol.input_bits = 4096 }) ];
  (* the widest accepted input still runs *)
  let widest = { base with Protocol.taps = 3; samples = 64; input_bits = 55 } in
  check_contains (Verbs.run ~pool widest) [ "coverage:" ];
  match Verbs.run ~pool { widest with Protocol.input_bits = 56 } with
  | _ -> Alcotest.fail "one bit wider must fail"
  | exception Failure msg -> check_contains msg [ "input_bits"; "at most 55" ]

(* ---- backpressure ---- *)

let read_lines fd want =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let count () =
    String.fold_left (fun a c -> if c = '\n' then a + 1 else a) 0 (Buffer.contents buf)
  in
  let rec go () =
    if count () < want then
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  List.filter (fun s -> String.length s > 0) (String.split_on_char '\n' (Buffer.contents buf))

let test_backpressure () =
  (* capacity 1, one executor and three pipelined sleep requests: the
     executor can hold at most one running and one queued, so at least one
     (deterministically the third) is rejected with a structured
     "overloaded" response while the connection stays up and the accepted
     requests still complete.  The executor count is pinned because it
     defaults to the pool size: with two executors all three requests can
     be admitted. *)
  let socket_path = temp_socket () in
  with_server (Server.config ~queue_capacity:1 ~executors:1 socket_path) @@ fun () ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let line = Protocol.request_to_json (Protocol.request ~sleep_ms:300 Protocol.Sleep) ^ "\n" in
  let payload = line ^ line ^ line in
  let n = Unix.write_substring fd payload 0 (String.length payload) in
  Alcotest.(check int) "whole pipeline written at once" (String.length payload) n;
  let responses =
    List.map
      (fun l ->
        match Protocol.response_of_json l with
        | Ok r -> r
        | Error e -> Alcotest.failf "bad response line: %s" e)
      (read_lines fd 3)
  in
  Alcotest.(check int) "every request answered" 3 (List.length responses);
  let by_status st = List.filter (fun r -> r.Protocol.status = st) responses in
  Alcotest.(check bool) "at least one executed" true (List.length (by_status Protocol.Ok_) >= 1);
  let rejected = by_status Protocol.Overloaded in
  Alcotest.(check bool) "at least one rejected" true (List.length rejected >= 1);
  List.iter
    (fun r ->
      check_contains r.Protocol.body [ "overloaded"; "capacity 1" ];
      Alcotest.(check string) "rejection names the verb" "sleep" r.Protocol.verb;
      Alcotest.(check int) "rejected without executing" 0 r.Protocol.service_ns)
    rejected

(* ---- byte-identity with the offline CLI ---- *)

let expected_plan () =
  let path = match Topology.build "default" with Some p -> p | None -> assert false in
  Format.asprintf "%a@." Plan.pp_summary (Plan.synthesize ~strategy:Propagate.Adaptive path)

let test_plan_byte_identity () =
  (* executors default to the pool size, so this sweep exercises 1, 2
     and 4 concurrent executor domains; the second request is served
     from the result cache (the default config enables it) and must
     still be byte-identical to the offline CLI *)
  let expected = expected_plan () in
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let socket_path = temp_socket () in
          with_server (Server.config ~pool socket_path) @@ fun () ->
          Client.with_connection ~socket_path (fun c ->
              List.iter
                (fun pass ->
                  match Client.request c (Protocol.request Protocol.Plan) with
                  | Error e -> Alcotest.failf "pool %d (%s): %s" size pass e
                  | Ok resp ->
                    Alcotest.(check string)
                      (Printf.sprintf "status at pool %d (%s)" size pass)
                      "ok"
                      (Protocol.status_name resp.Protocol.status);
                    Alcotest.(check string)
                      (Printf.sprintf "plan body byte-identical at pool %d (%s)" size
                         pass)
                      expected resp.Protocol.body;
                    Alcotest.(check int) "pool size reported" size
                      resp.Protocol.pool_size)
                [ "cold"; "cached" ])))
    [ 1; 2; 4 ]

(* ---- result cache ---- *)

let test_cache_hit_counters () =
  let socket_path = temp_socket () in
  with_server (Server.config ~executors:1 ~cache_size:8 socket_path) @@ fun () ->
  let expected = expected_plan () in
  Client.with_connection ~socket_path (fun c ->
      let plan pass =
        match Client.request c (Protocol.request Protocol.Plan) with
        | Ok r when r.Protocol.status = Protocol.Ok_ -> r
        | Ok r -> Alcotest.failf "%s plan rejected: %s" pass r.Protocol.body
        | Error e -> Alcotest.failf "%s plan failed: %s" pass e
      in
      let cold = plan "cold" in
      let hit = plan "hit" in
      Alcotest.(check string) "cached body byte-identical to cold" cold.Protocol.body
        hit.Protocol.body;
      Alcotest.(check string) "cached body byte-identical to the CLI" expected
        hit.Protocol.body;
      (* the hit is served by the acceptor, without a queue pass *)
      Alcotest.(check int) "cache hit never queued" 0 hit.Protocol.queue_ns;
      (* a trace-carrying request bypasses the cache so its export
         reflects a real execution *)
      (match
         Client.request c (Protocol.request ~trace:true Protocol.Plan)
       with
      | Ok r ->
        Alcotest.(check string) "traced body still byte-identical" expected
          r.Protocol.body;
        Alcotest.(check bool) "traced request carries an export" true
          (r.Protocol.trace_export <> None)
      | Error e -> Alcotest.failf "traced plan failed: %s" e);
      match Client.request c (Protocol.request Protocol.Metrics) with
      | Error e -> Alcotest.failf "metrics failed: %s" e
      | Ok r ->
        check_contains r.Protocol.body
          [ "msoc_serve_cache_hits_total 1";
            "msoc_serve_cache_misses_total";
            "msoc_serve_cache_evictions_total 0";
            "msoc_serve_executors 1" ])

(* ---- single flight ---- *)

(* A raw connection whose reads give up after [timeout] seconds, so a
   request that is never answered fails the test instead of hanging it. *)
let connect_raw ?(timeout = 30.0) socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
  fd

let write_string fd s = ignore (Unix.write_substring fd s 0 (String.length s))
let send fd req = write_string fd (Protocol.request_to_json req ^ "\n")

let parse_response line =
  match Protocol.response_of_json line with
  | Ok r -> r
  | Error e -> Alcotest.failf "bad response line: %s" e

let response_of fd =
  match read_lines fd 1 with
  | [ line ] -> parse_response line
  | lines -> Alcotest.failf "expected one response, read %d line(s)" (List.length lines)

let scrape c =
  match Client.request c (Protocol.request Protocol.Metrics) with
  | Ok r when r.Protocol.status = Protocol.Ok_ -> r.Protocol.body
  | Ok r -> Alcotest.failf "metrics rejected: %s" r.Protocol.body
  | Error e -> Alcotest.failf "metrics failed: %s" e

(* An unlabelled series of a metrics body. *)
let metric body name =
  String.split_on_char '\n' body
  |> List.find_map (fun line ->
         match String.index_opt line ' ' with
         | Some i when String.sub line 0 i = name ->
           int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
         | _ -> None)
  |> function
  | Some n -> n
  | None -> Alcotest.failf "%s missing from metrics" name

let shared_counters c =
  let body = scrape c in
  (metric body "msoc_serve_batched_total", metric body "msoc_serve_coalesced_batches_total")

let test_single_flight () =
  (* one executor held by a sleep and no cache: each identical pair from
     two connections waits behind the sleep, so the second request can
     only be answered by joining the first one's execution *)
  let cases =
    List.map
      (fun req -> (req, Pool.with_pool ~size:1 (fun pool -> Verbs.run ~pool req)))
      [ Protocol.request Protocol.Plan;
        Protocol.request ~seed:3 Protocol.Measure;
        Protocol.request ~taps:5 ~samples:128 ~seed:11 Protocol.Faultsim;
        Protocol.request ~trials:500 ~seed:2 Protocol.Montecarlo;
        Protocol.request ~restarts:2 ~iters:50 Protocol.Schedule ]
  in
  let socket_path = temp_socket () in
  with_server (Server.config ~executors:1 ~cache_size:0 socket_path) @@ fun () ->
  Client.with_connection ~socket_path @@ fun probe ->
  List.iter
    (fun ((req : Protocol.request), expected) ->
      let verb = Protocol.verb_name req.verb in
      let batched0, batches0 = shared_counters probe in
      let fds = List.init 3 (fun _ -> connect_raw socket_path) in
      Fun.protect ~finally:(fun () -> List.iter Unix.close fds) @@ fun () ->
      let holder, pair = (List.hd fds, List.tl fds) in
      send holder (Protocol.request ~sleep_ms:300 Protocol.Sleep);
      Unix.sleepf 0.05;
      List.iter (fun fd -> send fd req) pair;
      List.iter
        (fun fd ->
          let r = response_of fd in
          Alcotest.(check string) (verb ^ " status") "ok" (Protocol.status_name r.Protocol.status);
          Alcotest.(check string) (verb ^ " joined body equals Verbs.run") expected
            r.Protocol.body)
        pair;
      ignore (response_of holder);
      let batched1, batches1 = shared_counters probe in
      Alcotest.(check int) (verb ^ ": both requests shared one execution") 2
        (batched1 - batched0);
      Alcotest.(check int) (verb ^ ": one shared execution") 1 (batches1 - batches0))
    cases

let test_join_mid_execution () =
  (* the duplicate is sent only once the leader is running — the metrics
     request counts itself, so inflight 2 means the leader was dequeued —
     and must still share the leader's execution *)
  let req = Protocol.request ~iters:4000 ~seed:5 Protocol.Schedule in
  let socket_path = temp_socket () in
  with_server (Server.config ~executors:2 socket_path) @@ fun () ->
  Client.with_connection ~socket_path @@ fun probe ->
  let batched0, _ = shared_counters probe in
  let leader = connect_raw socket_path and duplicate = connect_raw socket_path in
  Fun.protect ~finally:(fun () -> List.iter Unix.close [ leader; duplicate ]) @@ fun () ->
  send leader req;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec await_running () =
    if metric (scrape probe) "msoc_serve_inflight" < 2 then begin
      if Unix.gettimeofday () > deadline then Alcotest.fail "the leader never started";
      Unix.sleepf 0.005;
      await_running ()
    end
  in
  await_running ();
  send duplicate req;
  let first = response_of leader and joined = response_of duplicate in
  Alcotest.(check string) "leader ok" "ok" (Protocol.status_name first.Protocol.status);
  Alcotest.(check string) "joined body equals the leader's" first.Protocol.body
    joined.Protocol.body;
  Alcotest.(check int) "a mid-execution joiner never queued" 0 joined.Protocol.queue_ns;
  Alcotest.(check bool) "its service time is its own wait" true
    (joined.Protocol.service_ns > 0
    && joined.Protocol.service_ns <= first.Protocol.service_ns);
  let batched1, _ = shared_counters probe in
  Alcotest.(check int) "both requests shared one execution" 2 (batched1 - batched0)

(* ---- schedule names its bad fields ---- *)

let test_schedule_bad_fields () =
  (* a negative search size fails before deriving, naming the field, and
     the daemon's reply carries the same message with no exception
     constructor around it *)
  let base = Protocol.request ~restarts:2 ~iters:50 Protocol.Schedule in
  let cases =
    [ ("restarts", { base with Protocol.restarts = -1 });
      ("iters", { base with Protocol.iters = -1 }) ]
  in
  Pool.with_pool ~size:1 (fun pool ->
      List.iter
        (fun (field, req) ->
          match Verbs.run ~pool req with
          | _ -> Alcotest.failf "schedule with a bad %s must fail" field
          | exception Failure msg ->
            Alcotest.(check string) (field ^ ": message")
              (Printf.sprintf "schedule: %s must be at least 0" field) msg)
        cases);
  let socket_path = temp_socket () in
  with_server (Server.config socket_path) @@ fun () ->
  let fd = connect_raw ~timeout:5.0 socket_path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  List.iter
    (fun (field, req) ->
      send fd req;
      let r = response_of fd in
      Alcotest.(check string) (field ^ ": daemon status") "error"
        (Protocol.status_name r.Protocol.status);
      Alcotest.(check string) (field ^ ": daemon body")
        (Printf.sprintf "schedule: %s must be at least 0" field) r.Protocol.body)
    cases

let test_failed_leader () =
  (* a failed execution frees its key: the duplicate that follows runs
     again and fails on its own, instead of waiting on a dead entry *)
  let socket_path = temp_socket () in
  with_server (Server.config socket_path) @@ fun () ->
  let fd = connect_raw ~timeout:5.0 socket_path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  List.iter
    (fun pass ->
      send fd (Protocol.request ~topology:"no-such-topology" Protocol.Plan);
      let r = response_of fd in
      Alcotest.(check string) (pass ^ " request answered") "error"
        (Protocol.status_name r.Protocol.status);
      check_contains r.Protocol.body [ "unknown topology" ])
    [ "first"; "second" ]

let test_split_lines () =
  let expected = expected_plan () in
  let socket_path = temp_socket () in
  with_server (Server.config socket_path) @@ fun () ->
  let fd = connect_raw socket_path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  (* one request line, one byte per write *)
  String.iter
    (fun ch ->
      write_string fd (String.make 1 ch);
      Unix.sleepf 0.001)
    "{\"verb\":\"plan\"}\n";
  let r = response_of fd in
  Alcotest.(check string) "byte-wise line answered" expected r.Protocol.body;
  (* two pipelined requests, the write boundary inside the second *)
  let payload = "{\"verb\":\"ping\"}\n{\"verb\":\"plan\"}\n" in
  let cut = 20 in
  write_string fd (String.sub payload 0 cut);
  Unix.sleepf 0.02;
  write_string fd (String.sub payload cut (String.length payload - cut));
  match List.map parse_response (read_lines fd 2) with
  | [ a; b ] ->
    let ping, plan = if a.Protocol.verb = "ping" then (a, b) else (b, a) in
    check_contains ping.Protocol.body [ "pong" ];
    Alcotest.(check string) "second pipelined request answered" "plan" plan.Protocol.verb;
    Alcotest.(check string) "split request's body" expected plan.Protocol.body
  | rs -> Alcotest.failf "expected two responses, read %d" (List.length rs)

let test_line_cap () =
  (* an unterminated line past the cap gets one parse error, then EOF; the
     daemon keeps answering other connections *)
  let socket_path = temp_socket () in
  with_server (Server.config socket_path) @@ fun () ->
  let fd = connect_raw ~timeout:10.0 socket_path in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
      write_string fd (String.make (Protocol.max_line_bytes + 1) 'x');
      match read_lines fd 2 with
      | [ line ] ->
        let r = parse_response line in
        Alcotest.(check string) "status" "error" (Protocol.status_name r.Protocol.status);
        Alcotest.(check string) "verb" "invalid" r.Protocol.verb;
        check_contains r.Protocol.body [ string_of_int Protocol.max_line_bytes ]
      | lines -> Alcotest.failf "expected one line then EOF, read %d line(s)" (List.length lines));
  Client.with_connection ~socket_path @@ fun c ->
  match Client.request c (Protocol.request Protocol.Ping) with
  | Ok r -> check_contains r.Protocol.body [ "pong" ]
  | Error e -> Alcotest.failf "ping after the cap failed: %s" e

let test_one_read_buffer () =
  (* the acceptor reads into one buffer and a client connection keeps its
     own, so a ping costs well under one 64 KiB buffer (8 K words, which
     goes straight to the major heap) of major words.  The count is read
     after [with_server] returns: the acceptor's domain has been joined,
     so its words are in [Gc.quick_stat]; [Gc.minor] first samples every
     running domain's *)
  let pings = 200 in
  let socket_path = temp_socket () in
  let before = ref 0.0 in
  with_server (Server.config ~executors:1 socket_path) (fun () ->
      Client.with_connection ~socket_path @@ fun c ->
      let ping () =
        match Client.request c (Protocol.request Protocol.Ping) with
        | Ok r -> check_contains r.Protocol.body [ "pong" ]
        | Error e -> Alcotest.failf "ping failed: %s" e
      in
      ping ();
      Gc.minor ();
      before := (Gc.quick_stat ()).Gc.major_words;
      for _ = 1 to pings do
        ping ()
      done);
  let per_ping = ((Gc.quick_stat ()).Gc.major_words -. !before) /. float_of_int pings in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major words per ping, under 1 K" per_ping)
    true (per_ping < 1024.0)

(* ---- montecarlo: daemon == CLI ---- *)

let test_montecarlo_identity () =
  let req =
    Protocol.request ~strategy:"nominal" ~trials:500 ~seed:0 Protocol.Montecarlo
  in
  let expected = Pool.with_pool ~size:1 (fun pool -> Verbs.run ~pool req) in
  (* seed 0 resolves to the canonical study seed in the rendered header *)
  check_contains expected
    [ Printf.sprintf "seed %d" Msoc_synth.Propagate.figure4_seed; "500 trials" ];
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let socket_path = temp_socket () in
          with_server (Server.config ~pool socket_path) @@ fun () ->
          Client.with_connection ~socket_path (fun c ->
              match Client.request c req with
              | Error e -> Alcotest.failf "pool %d: %s" size e
              | Ok resp ->
                Alcotest.(check string)
                  (Printf.sprintf "montecarlo body byte-identical at pool %d" size)
                  expected resp.Protocol.body)))
    [ 1; 2 ]

(* ---- class-cap admission ---- *)

let test_heavy_cap_admission () =
  (* a 2-slot queue derives heavy cap max 1 (3/4 * 2) = 1: pipelined
     sleeps trip the class cap while the queue itself still has room, and
     the rejection names both limits; a cheap ping is admitted throughout *)
  let socket_path = temp_socket () in
  with_server (Server.config ~queue_capacity:2 ~executors:1 socket_path) @@ fun () ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let line =
    Protocol.request_to_json (Protocol.request ~sleep_ms:300 Protocol.Sleep) ^ "\n"
  in
  let payload = line ^ line ^ line in
  ignore (Unix.write_substring fd payload 0 (String.length payload));
  (* while the heavy class is saturated, a cheap probe on a second
     connection still gets in (and eventually answered) *)
  Client.with_connection ~socket_path (fun c ->
      match Client.request c (Protocol.request Protocol.Ping) with
      | Ok r ->
        Alcotest.(check string) "ping admitted while heavy class is capped" "ok"
          (Protocol.status_name r.Protocol.status)
      | Error e -> Alcotest.failf "ping failed: %s" e);
  let responses =
    List.map
      (fun l ->
        match Protocol.response_of_json l with
        | Ok r -> r
        | Error e -> Alcotest.failf "bad response line: %s" e)
      (read_lines fd 3)
  in
  let by_status st = List.filter (fun r -> r.Protocol.status = st) responses in
  Alcotest.(check bool) "at least one sleep executed" true
    (List.length (by_status Protocol.Ok_) >= 1);
  let rejected = by_status Protocol.Overloaded in
  Alcotest.(check bool) "at least one sleep rejected" true (List.length rejected >= 1);
  List.iter
    (fun r ->
      check_contains r.Protocol.body
        [ "overloaded"; "heavy"; "class cap 1"; "queue capacity 2" ])
    rejected

(* ---- metrics verb ---- *)

(* Every sample of every counter family in an exposition, by series. *)
let counter_samples body =
  let lines = String.split_on_char '\n' body in
  let counters =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "#"; "TYPE"; name; "counter" ] -> Some name
        | _ -> None)
      lines
  in
  List.filter_map
    (fun l ->
      match String.rindex_opt l ' ' with
      | Some i when l.[0] <> '#' ->
        let series = String.sub l 0 i in
        let family = List.hd (String.split_on_char '{' series) in
        if List.mem family counters then
          Some (series, float_of_string (String.sub l (i + 1) (String.length l - i - 1)))
        else None
      | _ -> None)
    lines

let test_metrics_families () =
  (* the same families at one executor and at two; every counter sample
     only rises across scrapes, and the pooled engines' counts reach the
     scrape at both executor counts *)
  List.iter
    (fun executors ->
      let socket_path = temp_socket () in
      with_server (Server.config ~executors socket_path) @@ fun () ->
      Client.with_connection ~socket_path (fun c ->
          let run (req : Protocol.request) =
            match Client.request c req with
            | Ok r when r.Protocol.status = Protocol.Ok_ -> r.Protocol.body
            | Ok r -> Alcotest.failf "%s rejected: %s" (Protocol.verb_name req.verb) r.Protocol.body
            | Error e -> Alcotest.failf "%s failed: %s" (Protocol.verb_name req.verb) e
          in
          check_contains (run (Protocol.request Protocol.Ping)) [ "pong" ];
          let first = scrape c in
          check_contains first
            [ "msoc_serve_requests_total{verb=\"ping\",status=\"ok\"} 1";
              "msoc_serve_latency_ns_bucket";
              "msoc_serve_queue_wait_ns";
              "msoc_serve_inflight";
              "msoc_serve_queue_capacity";
              "msoc_build_info" ];
          List.iter
            (fun req -> ignore (run req))
            [ Protocol.request ~taps:5 ~samples:128 Protocol.Faultsim;
              Protocol.request ~trials:500 Protocol.Montecarlo;
              Protocol.request Protocol.Plan;
              Protocol.request Protocol.Plan ];
          let second = scrape c in
          let after = counter_samples second in
          List.iter
            (fun (series, v) ->
              let v' = Option.value ~default:0.0 (List.assoc_opt series after) in
              Alcotest.(check bool)
                (Printf.sprintf "%s does not fall at %d executor(s): %g -> %g" series executors v
                   v')
                true (v' >= v))
            (counter_samples first);
          Alcotest.(check bool)
            (Printf.sprintf "engine counters reach the scrape at %d executor(s)" executors)
            true
            (metric second "msoc_fft_transforms_total" > 0)))
    [ 1; 2 ]

(* ---- an invalid config touches nothing ---- *)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_invalid_config_touches_nothing () =
  (* a rejected config leaves the file at its socket path (a live
     daemon's socket, say) in place and holds no descriptor *)
  List.iter
    (fun (label, cfg) ->
      let socket_path = temp_socket () in
      Out_channel.with_open_bin socket_path (fun oc -> output_string oc "live");
      Fun.protect ~finally:(fun () -> Sys.remove socket_path) @@ fun () ->
      let fds = open_fds () in
      (match Server.create (cfg socket_path) with
      | _ -> Alcotest.failf "%s was accepted" label
      | exception Invalid_argument _ -> ());
      Alcotest.(check string) (label ^ ": the file at the path survives") "live"
        (In_channel.with_open_bin socket_path In_channel.input_all);
      Alcotest.(check int) (label ^ ": no descriptor leaked") fds (open_fds ()))
    [ ("executors 0", fun path -> Server.config ~executors:0 path);
      ("queue capacity 0", fun path -> Server.config ~queue_capacity:0 path) ]

let test_bad_paths_leak_nothing () =
  (* an access log that cannot be opened fails before the socket path is
     touched, and a socket path that cannot be bound leaves the log's
     bytes alone and closes it and the socket already opened; only a
     daemon that starts empties the log *)
  let missing_dir = temp_socket () ^ ".d" in
  let socket_path = temp_socket () in
  Out_channel.with_open_bin socket_path (fun oc -> output_string oc "live");
  Fun.protect ~finally:(fun () -> Sys.remove socket_path) @@ fun () ->
  let fds = open_fds () in
  (match
     Server.create
       (Server.config ~access_log:(Filename.concat missing_dir "access.jsonl") socket_path)
   with
  | _ -> Alcotest.fail "an access log in a missing directory was accepted"
  | exception Sys_error _ -> ());
  Alcotest.(check bool) "the file at the socket path is still a regular file" true
    ((Unix.lstat socket_path).Unix.st_kind = Unix.S_REG);
  Alcotest.(check int) "bad log: no descriptor leaked" fds (open_fds ());
  let access_log = temp_socket () ^ ".jsonl" in
  Out_channel.with_open_bin access_log (fun oc -> output_string oc "last run\n");
  Fun.protect ~finally:(fun () -> Sys.remove access_log) @@ fun () ->
  (match Server.create (Server.config ~access_log (Filename.concat missing_dir "msoc.sock")) with
  | _ -> Alcotest.fail "a socket path in a missing directory was accepted"
  | exception Unix.Unix_error _ -> ());
  Alcotest.(check string) "bad socket path: the access log keeps its bytes" "last run\n"
    (In_channel.with_open_bin access_log In_channel.input_all);
  Alcotest.(check int) "bad socket path: no descriptor leaked" fds (open_fds ());
  with_server (Server.config ~access_log (temp_socket ())) ignore;
  Alcotest.(check string) "a daemon that starts empties the access log" ""
    (In_channel.with_open_bin access_log In_channel.input_all)

(* ---- per-request trace export: the same at every executor count ---- *)

(* A trace export as the offline analyses parse it. *)
let load_export export =
  match Trace.parse export with
  | Ok t -> t
  | Error e -> Alcotest.failf "export does not parse: %s" e

let pool_chunks t =
  List.length (List.filter (fun sp -> sp.Trace.sp_name = "pool.chunk") t.Trace.spans)

let test_trace_roundtrip () =
  (* a traced faultsim on a 2-slot pool exports its whole generation —
     the pool worker's chunks included — at one executor and at two: the
     same span paths, as many pool.chunk spans as the CLI's export of the
     same run, and an export the offline analyses accept as-is *)
  let req = Protocol.request ~taps:5 ~samples:256 Protocol.Faultsim in
  Pool.with_pool ~size:2 @@ fun pool ->
  let cli =
    Obs.enable ();
    Obs.reset ();
    Fun.protect ~finally:(fun () -> Obs.disable (); Obs.reset ()) @@ fun () ->
    ignore (Verbs.run ~pool req);
    load_export (Obs.jsonl ())
  in
  Alcotest.(check bool) "the run was pooled" true (pool_chunks cli > 2);
  let traced executors =
    let socket_path = temp_socket () in
    with_server (Server.config ~pool ~executors socket_path) @@ fun () ->
    let t =
      Client.with_connection ~socket_path (fun c ->
          match Client.request c { req with Protocol.trace = true } with
          | Ok { Protocol.trace_export = Some export; _ } -> load_export export
          | Ok r -> Alcotest.failf "no trace export: %s" r.Protocol.body
          | Error e -> Alcotest.failf "traced faultsim failed: %s" e)
    in
    let names = List.map (fun sp -> sp.Trace.sp_name) t.Trace.spans in
    List.iter
      (fun n ->
        Alcotest.(check bool) (Printf.sprintf "span %s exported" n) true (List.mem n names))
      [ "serve.request"; "serve.queue_wait"; "serve.execute"; "serve.serialize" ];
    (* the offline analyses accept the daemon's export as-is *)
    check_contains (Trace.summary t) [ "serve.request"; "serve.execute" ];
    check_contains (Trace.to_folded t) [ "serve.request" ];
    Alcotest.(check int)
      (Printf.sprintf "%d executor(s): the CLI's pool.chunk count" executors)
      (pool_chunks cli) (pool_chunks t);
    List.sort_uniq compare (List.map (fun sp -> sp.Trace.sp_path) t.Trace.spans)
  in
  let one = traced 1 in
  let two = traced 2 in
  Alcotest.(check (list string)) "the same span paths at both executor counts" one two

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "msoc_serve"
    [ ( "workq",
        [ Alcotest.test_case "bounded fifo" `Quick test_workq_bounds;
          Alcotest.test_case "close drains then ends" `Quick test_workq_close;
          Alcotest.test_case "cross-domain hand-off" `Quick test_workq_cross_domain;
          Alcotest.test_case "multi-consumer exactly-once" `Quick
            test_workq_multi_consumer;
          Alcotest.test_case "overload accounting under contention" `Quick
            test_workq_overload_accounting ] );
      ("workq-properties", qcheck [ prop_workq_exactly_once ]);
      ( "protocol",
        [ Alcotest.test_case "request/response round trip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "cache key covers every field a verb reads" `Quick
            test_cache_key_covers_reads;
          Alcotest.test_case "faultsim names its bad fields" `Quick
            test_faultsim_bad_fields;
          Alcotest.test_case "schedule names its bad fields" `Quick
            test_schedule_bad_fields ] );
      ( "daemon",
        [ Alcotest.test_case "queue-full backpressure" `Quick test_backpressure;
          Alcotest.test_case "plan byte-identity across pool sizes" `Quick
            test_plan_byte_identity;
          Alcotest.test_case "result cache hit counters" `Quick test_cache_hit_counters;
          Alcotest.test_case "duplicate requests coalesce" `Quick test_single_flight;
          Alcotest.test_case "join a running execution" `Quick test_join_mid_execution;
          Alcotest.test_case "failed leader frees its key" `Quick test_failed_leader;
          Alcotest.test_case "request lines split across reads" `Quick test_split_lines;
          Alcotest.test_case "unterminated line past the cap" `Quick test_line_cap;
          Alcotest.test_case "one read buffer per reader" `Quick test_one_read_buffer;
          Alcotest.test_case "montecarlo daemon matches CLI" `Quick
            test_montecarlo_identity;
          Alcotest.test_case "heavy-class admission cap" `Quick test_heavy_cap_admission;
          Alcotest.test_case "metrics families" `Quick test_metrics_families;
          Alcotest.test_case "invalid config touches nothing" `Quick
            test_invalid_config_touches_nothing;
          Alcotest.test_case "bad log or socket path leaks nothing" `Quick
            test_bad_paths_leak_nothing;
          Alcotest.test_case "trace export round trip" `Quick test_trace_roundtrip ] ) ]
