(* End-to-end benchmark of msoc: spawns the real binary (one `msoc serve`
   daemon, or one `msoc <verb>` process per CLI request), drives one
   workload against it in closed loops from this process, checks every
   answer, and prints each metric by name with its unit.  The last line of
   standard output is one JSON object:
   {"correct":…,"attempted":…,"failed":…,"metrics":{…}}.

   Usage:
     main.exe --workload NAME --seed N [--seconds S] [--trace 0|1]
              [--requests K] [--msoc PATH] [--out DIR]

   With --trace 1 the timed run is followed by an in-process replay of
   the same requests under the program's Obs probes, and the JSON carries
   the per-layer metrics instead of the end-to-end ones.  README.md has
   the workloads, the metrics and what each layer metric should move. *)

module P = Msoc_serve.Protocol
module Client = Msoc_serve.Client
module Verbs = Msoc_serve.Verbs
module Obs = Msoc_obs.Obs
module Trace = Msoc_obs.Trace
module Json = Msoc_obs.Json
module Pool = Msoc_util.Pool
module Stats = Msoc_bench_e2e.Stats
module Proc = Msoc_bench_e2e.Proc
module W = Workload

(* The daemon's pool and the bench's own; two matches the two cores the
   workload sizes were chosen on. *)
let pool_domains = 2

(* Result-cache capacity of `msoc serve` by default; the in-process
   replay uses the same. *)
let cache_size = 256

let compute_verbs = [ P.Plan; P.Measure; P.Faultsim; P.Montecarlo; P.Schedule ]
let served_verbs = compute_verbs @ [ P.Ping; P.Metrics ]

(* ---- the metrics this bench reports (BENCHMARK.json lists the same) ---- *)

let end_to_end = [ ("throughput_rps", "req/s"); ("peak_rss_mb", "MB"); ("setup_s", "s") ]

(* Per-request latency as the caller sees it.  It is a layer metric, not
   an end-to-end one: on serve-sweep and serve-dup its median moves with
   which requests happen to share the pool and whether a duplicate is
   recomputed, by 10-25% from run to run. *)
let client_layer = [ ("client.latency_ms.p50", "ms"); ("client.latency_ms.p99", "ms") ]

let serve_layer =
  [ ("serve.transport_ms.p50", "ms");
    ("serve.transport_ms.p99", "ms"); ("serve.queue_ms.p50", "ms");
    ("serve.queue_ms.p99", "ms") ]
  @ List.map (fun v -> ("serve.service_ms.p50." ^ P.verb_name v, "ms")) served_verbs
  @ [ ("serve.cache.hit_ratio", "ratio"); ("serve.dedup.computations_per_key", "ratio");
      ("serve.coalesce.batched", "count"); ("serve.rejected", "count");
      ("serve.failed", "count") ]

let engine_layer =
  List.map (fun v -> ("verbs.run_ms.p50." ^ P.verb_name v, "ms")) compute_verbs
  @ List.map (fun v -> ("verbs.minor_mwords." ^ P.verb_name v, "Mwords")) compute_verbs
  @ [ ("verbs.serialize.self_ms", "ms"); ("verbs.execute.self_ms", "ms");
      ("synth.plan.synthesize.busy_ms", "ms"); ("netlist.fault_sim.run.busy_ms", "ms");
      ("netlist.fault_sim.faults", "count"); ("dsp.spectrum.analyze.busy_ms", "ms");
      ("dsp.spectrum.captures", "count"); ("dsp.fft.transforms", "count");
      ("dsp.fft.plan.build.busy_ms", "ms"); ("soc.schedule.derive.busy_ms", "ms");
      ("soc.schedule.greedy.busy_ms", "ms"); ("soc.schedule.anneal.busy_ms", "ms");
      ("soc.anneal.accept_ratio", "ratio"); ("stat.monte_carlo.sample_array.busy_ms", "ms");
      ("util.pool.busy_share", "ratio"); ("util.pool.steals", "count");
      ("trace.residual_share", "ratio"); ("trace.overhead_pct", "%") ]

let per_layer = client_layer @ serve_layer @ engine_layer

(* ---- command line ---- *)

type config = {
  workload : W.t;
  seed : int;
  seconds : float;
  trace : bool;
  requests : int option;  (* cap per client (per run on cli-paper), for smoke runs *)
  msoc : string;
  out_dir : string;
}

let usage =
  "usage: main.exe --workload NAME --seed N [--seconds S] [--trace 0|1] [--requests K] \
   [--msoc PATH] [--out DIR]\n\
   workloads: " ^ String.concat ", " (List.map fst W.all)

let usage_error msg =
  prerr_endline ("bench: " ^ msg);
  prerr_endline usage;
  exit 2

let parse_args argv =
  let rec go acc = function
    | [] -> acc
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      go ((flag, value) :: acc) rest
    | arg :: _ -> usage_error (Printf.sprintf "unexpected argument %S" arg)
  in
  let opts = go [] (List.tl (Array.to_list argv)) in
  List.iter
    (fun (flag, _) ->
      if not
           (List.mem flag
              [ "--workload"; "--seed"; "--seconds"; "--trace"; "--requests"; "--msoc"; "--out" ])
      then usage_error ("unknown option " ^ flag))
    opts;
  let get flag = List.assoc_opt flag opts in
  let int_of flag s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> usage_error (Printf.sprintf "%s wants an integer, got %S" flag s)
  in
  let workload =
    match Option.map W.of_name (get "--workload") with
    | Some (Some w) -> w
    | Some None -> usage_error "unknown workload"
    | None -> usage_error "--workload is required"
  in
  let seed =
    match get "--seed" with Some s -> int_of "--seed" s | None -> usage_error "--seed is required"
  in
  let seconds =
    match Option.map float_of_string_opt (get "--seconds") with
    | None -> 20.0
    | Some (Some s) when s > 0.0 -> s
    | Some _ -> usage_error "--seconds wants a positive number"
  in
  let trace =
    match get "--trace" with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some s -> usage_error (Printf.sprintf "--trace wants 0 or 1, got %S" s)
  in
  let requests =
    Option.map
      (fun s -> match int_of "--requests" s with k when k >= 1 -> k | _ -> usage_error "--requests wants K >= 1")
      (get "--requests")
  in
  { workload;
    seed;
    seconds;
    trace;
    requests;
    msoc = Option.value (get "--msoc") ~default:"_build/default/bin/msoc_cli.exe";
    out_dir = Option.value (get "--out") ~default:"bench/e2e/_out" }

(* ---- small helpers ---- *)

let ns_since t0 = Int64.to_float (Int64.sub (Obs.now_ns ()) t0)
let ms ns = ns /. 1e6
let or_zero = Option.value ~default:0.0
let percentile_ms p xs = ms (or_zero (Stats.percentile ~p (Array.of_list xs)))
let median_ms = percentile_ms 50.0

(* Allocation-free: it scans every `metrics` body inside the timed loop. *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec matches i j = j = n || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec at i = i + n <= m && (matches i 0 || at (i + 1)) in
  at 0

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A seeded sample of at least one in eight of [items]. *)
let sample ~seed items =
  let st = W.rng ~seed [ 6 ] in
  let a = Array.of_list items in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list (Array.sub a 0 ((Array.length a + 7) / 8))

(* Recompute [req] in this process, as the daemon and the CLI do, and
   compare the body byte for byte. *)
let same_as_in_process (req : P.request) body =
  let same = String.equal body (Verbs.run ~pool:(Pool.get_default ()) req) in
  if not same then
    Printf.eprintf "bench: %s differs from an in-process run\n%!"
      (Option.value ~default:"?" (P.cache_key req));
  same

(* ---- what a timed run hands to the report and the traced replay ---- *)

type timed = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (* end-to-end, client and serve layers *)
  sent : P.request list;             (* compute requests, in send order *)
}

(* ---- cli-paper: one msoc process per request ---- *)

let cli_args (r : P.request) =
  let i = string_of_int in
  let seed = Printf.sprintf "--seed=%d" r.seed in
  match r.verb with
  | P.Plan -> [ "plan"; "--topology"; r.topology; "--strategy"; r.strategy ]
  | P.Measure -> [ "measure"; "--topology"; r.topology; "--strategy"; r.strategy; seed ]
  | P.Montecarlo -> [ "montecarlo"; "--strategy"; r.strategy; "--trials"; i r.trials; seed ]
  | P.Schedule ->
    [ "schedule"; "--soc"; r.soc; "--restarts"; i r.restarts; "--iters"; i r.iters; seed ]
  | P.Faultsim ->
    [ "faultsim"; "--taps"; i r.taps; "--input-bits"; i r.input_bits; "--coeff-bits";
      i r.coeff_bits; "--samples"; i r.samples; "--tones"; i r.tones; seed ]
  | P.Metrics | P.Ping | P.Sleep -> invalid_arg "cli_args: not a CLI verb"

(* Set up at least five times and for at least a second, and report the
   median in seconds: one set-up takes milliseconds and is noisy.  The
   last set-up's result is kept; the others are torn down. *)
let median_setup ~start ~discard =
  let t0 = Obs.now_ns () in
  let rec go times =
    let s = Obs.now_ns () in
    let x = start () in
    let times = ns_since s :: times in
    if List.length times >= 5 && ns_since t0 >= 1e9 then
      (x, or_zero (Stats.median (Array.of_list times)) /. 1e9)
    else begin
      discard x;
      go times
    end
  in
  go []

(* A user's first contact with the CLI: one process start. *)
let setup_cli cfg =
  snd
    (median_setup ~discard:ignore ~start:(fun () ->
         let out, st = Proc.run_capture cfg.msoc [ "plan"; "--list-topologies" ] in
         if st.Proc.code <> 0 || not (contains ~sub:"default" out) then
           failwith "msoc plan --list-topologies failed"))

let run_cli cfg =
  let items = W.cli_paper ~seed:cfg.seed in
  let cap = Option.value cfg.requests ~default:max_int in
  let first_body = Hashtbl.create 32 in
  let lats = ref [] and sent = ref [] and failed = ref 0 and peak_kb = ref 0 in
  let t0 = Obs.now_ns () in
  (* Whole rounds only, so every run carries the same mix: at least one,
     and another only while it is expected to end inside the window. *)
  let rec rounds () =
    let round_start = Obs.now_ns () in
    List.iter
      (fun (req : P.request) ->
        if List.length !lats < cap then begin
          let s = Obs.now_ns () in
          let out, st = Proc.run_capture cfg.msoc (cli_args req) in
          lats := ns_since s :: !lats;
          sent := req :: !sent;
          peak_kb := max !peak_kb st.Proc.maxrss_kb;
          let key = Option.get (P.cache_key req) in
          let ok =
            st.Proc.code = 0 && st.Proc.signal = 0
            && (match W.pin req with Some line -> contains ~sub:line out | None -> true)
            &&
            match Hashtbl.find_opt first_body key with
            | Some (_, first) -> String.equal first out
            | None -> Hashtbl.add first_body key (req, out); true
          in
          if not ok then begin
            incr failed;
            Printf.eprintf "bench: wrong or failed output for %s\n%!" key
          end
        end)
      items;
    if List.length !lats < cap && ns_since t0 +. ns_since round_start <= cfg.seconds *. 1e9 then
      rounds ()
  in
  rounds ();
  let wall_s = ns_since t0 /. 1e9 in
  let n = List.length !lats in
  ( { attempted = n;
      failed = !failed;
      metrics =
        [ ("throughput_rps", float_of_int n /. wall_s);
          ("peak_rss_mb", float_of_int !peak_kb /. 1024.0);
          ("client.latency_ms.p50", median_ms !lats);
          ("client.latency_ms.p99", percentile_ms 99.0 !lats) ]
        (* no daemon on this workload: its layer reads 0 *)
        @ List.map (fun (name, _) -> (name, 0.0)) serve_layer;
      sent = List.rev !sent },
    (* the pinned faultsims were checked above; recomputing them in
       process would cost as much as the run *)
    Hashtbl.fold (fun _ (req, out) acc -> if W.pin req = None then (req, out) :: acc else acc)
      first_body []
    |> List.sort compare )

(* ---- serve workloads: one daemon, two closed-loop connections ---- *)

type daemon = { pid : int; conn : Client.t; socket : string }

let daemons_started = ref 0

(* The daemons' start and shutdown lines go to one log per bench run. *)
let daemon_log = ref None

let log_fd cfg =
  match !daemon_log with
  | Some fd -> fd
  | None ->
    let file = Filename.concat cfg.out_dir (Printf.sprintf "daemons-%d.log" (Unix.getpid ())) in
    let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
    daemon_log := Some fd;
    fd

let start_daemon cfg =
  incr daemons_started;
  let socket =
    Filename.concat cfg.out_dir (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) !daemons_started)
  in
  let log = log_fd cfg in
  let pid = Proc.spawn ~stdout:log ~stderr:log cfg.msoc [ "serve"; "--socket"; socket ] in
  let t0 = Obs.now_ns () in
  let rec connect () =
    match Client.connect ~socket_path:socket with
    | c -> c
    | exception Unix.Unix_error _ when ns_since t0 < 30e9 ->
      Unix.sleepf 0.0002;
      connect ()
  in
  let conn = connect () in
  (match Client.request conn (P.request P.Ping) with
  | Ok r when r.P.status = P.Ok_ -> ()
  | _ -> failwith "daemon did not answer ping");
  { pid; conn; socket }

let stop_daemon d =
  Client.close d.conn;
  let st = Proc.terminate d.pid in
  if st.Proc.code <> 0 || (st.Proc.signal <> 0 && st.Proc.signal <> Sys.sigterm) then
    failwith "daemon did not shut down cleanly";
  st

let request_ok conn req =
  match Client.request conn req with
  | Ok r when r.P.status = P.Ok_ -> r
  | Ok r -> failwith (Printf.sprintf "%s: %s" (P.verb_name req.P.verb) r.P.body)
  | Error msg -> failwith msg

(* serve-hot's cache is filled before timing: users of a warm daemon do
   not pay for it, the set-up does. *)
let warm cfg conn =
  if cfg.workload = W.Serve_hot then
    Array.iter (fun req -> if W.cacheable req then ignore (request_ok conn req))
      (W.hot_keys ~seed:cfg.seed)

(* Daemon start to first answered ping, plus the cache fill on
   serve-hot; the last daemon serves the run. *)
let setup_serve cfg =
  median_setup
    ~discard:(fun d -> ignore (stop_daemon d))
    ~start:(fun () ->
      let d = start_daemon cfg in
      warm cfg d.conn;
      d)

type record = {
  req : P.request;
  sent_ns : int64;
  lat_ns : float;
  ok : bool;
  queue_ns : float;
  service_ns : float;
}

let pong = Printf.sprintf "pong: pool=%d " pool_domains

(* Bodies are checked as they arrive and then dropped: the first body of
   each key is kept, and every later one must equal it. *)
let body_ok bodies (req : P.request) body =
  match (P.cache_key req, req.verb) with
  | Some key, _ ->
    (match Hashtbl.find_opt bodies key with
    | Some (_, first) -> String.equal first body
    | None -> Hashtbl.add bodies key (req, body); true)
  | None, P.Ping -> String.starts_with ~prefix:pong body
  | None, P.Metrics -> contains ~sub:"msoc_serve_cache_hits_total" body
  | None, _ -> false

let client_loop conn stream ~deadline ~cap bodies =
  let rec go i acc =
    if i >= cap || Int64.compare (Obs.now_ns ()) deadline >= 0 then List.rev acc
    else begin
      let req = stream i in
      let sent_ns = Obs.now_ns () in
      let answer = Client.request conn req in
      let lat_ns = ns_since sent_ns in
      let r =
        match answer with
        | Ok r ->
          { req;
            sent_ns;
            lat_ns;
            ok = r.P.status = P.Ok_ && body_ok bodies req r.P.body;
            queue_ns = float_of_int r.P.queue_ns;
            service_ns = float_of_int r.P.service_ns }
        | Error _ -> { req; sent_ns; lat_ns; ok = false; queue_ns = 0.0; service_ns = 0.0 }
      in
      go (i + 1) (r :: acc)
    end
  in
  go 0 []

(* Sum of a Prometheus family's samples whose label set contains [label]. *)
let prom_sum ?(label = "") body family =
  String.split_on_char '\n' body
  |> List.fold_left
       (fun acc line ->
         match String.rindex_opt line ' ' with
         | Some sp ->
           let series = String.sub line 0 sp in
           let name =
             match String.index_opt series '{' with Some i -> String.sub series 0 i | None -> series
           in
           if String.equal name family && contains ~sub:label series then
             acc +. or_zero (float_of_string_opt (String.sub line (sp + 1) (String.length line - sp - 1)))
           else acc
         | None -> acc)
       0.0

let run_serve cfg d =
  let cap = Option.value cfg.requests ~default:max_int in
  let stream client = W.stream cfg.workload ~seed:cfg.seed ~client in
  let before = (request_ok d.conn (P.request P.Metrics)).P.body in
  let conn1 = Client.connect ~socket_path:d.socket in
  let bodies0 = Hashtbl.create 64 and bodies1 = Hashtbl.create 64 in
  let t0 = Obs.now_ns () in
  let deadline = Int64.add t0 (Int64.of_float (cfg.seconds *. 1e9)) in
  let other =
    Domain.spawn (fun () -> client_loop conn1 (stream 1) ~deadline ~cap bodies1)
  in
  let mine = client_loop d.conn (stream 0) ~deadline ~cap bodies0 in
  let theirs = Domain.join other in
  Client.close conn1;
  let records = mine @ theirs in
  let wall_ns =
    List.fold_left
      (fun acc r -> Float.max acc (Int64.to_float (Int64.sub r.sent_ns t0) +. r.lat_ns))
      0.0 records
  in
  let after = (request_ok d.conn (P.request P.Metrics)).P.body in
  let delta ?label family = prom_sum ?label after family -. prom_sum ?label before family in
  (* the two connections must agree on every key they share *)
  let disagreements =
    Hashtbl.fold
      (fun key (_, body) n ->
        match Hashtbl.find_opt bodies0 key with
        | Some (_, first) when not (String.equal first body) -> n + 1
        | Some _ -> n
        | None -> Hashtbl.add bodies0 key (Hashtbl.find bodies1 key); n)
      bodies1 0
  in
  let pct p f = percentile_ms p (List.map f records) in
  let transport r = r.lat_ns -. r.queue_ns -. r.service_ns in
  let service_p50 verb =
    median_ms (List.filter_map (fun r -> if r.req.verb = verb then Some r.service_ns else None) records)
  in
  let hits = delta "msoc_serve_cache_hits_total" in
  let misses = delta "msoc_serve_cache_misses_total" in
  let batched = delta "msoc_serve_batched_total" in
  (* a coalesced batch of b requests counts b misses but computes once *)
  let computations = misses -. batched +. delta "msoc_serve_coalesced_batches_total" in
  let n = List.length records in
  let metrics =
    [ ("throughput_rps", float_of_int n /. (wall_ns /. 1e9));
      ("client.latency_ms.p50", pct 50.0 (fun r -> r.lat_ns));
      ("client.latency_ms.p99", pct 99.0 (fun r -> r.lat_ns));
      ("serve.transport_ms.p50", pct 50.0 transport);
      ("serve.transport_ms.p99", pct 99.0 transport);
      ("serve.queue_ms.p50", pct 50.0 (fun r -> r.queue_ns));
      ("serve.queue_ms.p99", pct 99.0 (fun r -> r.queue_ns)) ]
    @ List.map (fun v -> ("serve.service_ms.p50." ^ P.verb_name v, service_p50 v)) served_verbs
    @ [ ("serve.cache.hit_ratio", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
        ("serve.dedup.computations_per_key",
         match Hashtbl.length bodies0 with 0 -> 0.0 | keys -> computations /. float_of_int keys);
        ("serve.coalesce.batched", batched);
        ("serve.rejected", delta ~label:"status=\"overloaded\"" "msoc_serve_requests_total");
        ("serve.failed", delta ~label:"status=\"error\"" "msoc_serve_requests_total") ]
  in
  let bad = List.length (List.filter (fun r -> not r.ok) records) in
  let by_send = List.sort (fun a b -> Int64.compare a.sent_ns b.sent_ns) records in
  ( { attempted = n;
      failed = bad + disagreements;
      metrics;
      sent = List.filter_map (fun r -> if W.cacheable r.req then Some r.req else None) by_send },
    Hashtbl.fold (fun _ v acc -> v :: acc) bodies0 [] |> List.sort compare )

(* ---- traced replay: the layer split ---- *)

(* The calls the daemon's executor makes, in send order: probe the cache,
   compute on a miss, fill.  Returns how many requests ran, the wall
   time, and per verb each computation's time and minor words. *)
let replay ?budget_ns ~traced reqs limit =
  let cache = Option.get (Verbs.create_cache ~size:cache_size) in
  let pool = Pool.get_default () in
  let runs = Hashtbl.create 8 in
  let serve (req : P.request) () =
    match Verbs.cache_find cache req with
    | Some _ -> ()
    | None ->
      let g0 = (Gc.quick_stat ()).Gc.minor_words in
      let s = Obs.now_ns () in
      let body = Verbs.run ~pool req in
      let run_ns = ns_since s in
      let words = (Gc.quick_stat ()).Gc.minor_words -. g0 in
      Hashtbl.replace runs req.verb
        ((run_ns, words) :: Option.value ~default:[] (Hashtbl.find_opt runs req.verb));
      Verbs.cache_add cache req body
  in
  let t0 = Obs.now_ns () in
  let within () = match budget_ns with Some b -> ns_since t0 < b | None -> true in
  let rec go i =
    if i < limit && i < Array.length reqs && within () then begin
      let req : P.request = reqs.(i) in
      if traced then
        Obs.span "bench.request" ~args:[ ("verb", P.verb_name req.verb) ] (serve req)
      else serve req ();
      go (i + 1)
    end
    else i
  in
  let n = go 0 in
  (n, ns_since t0, runs)

let trace_layers cfg (sent : P.request list) =
  let reqs = Array.of_list sent in
  let file =
    Filename.concat cfg.out_dir
      (Printf.sprintf "trace-%s-seed%d.jsonl" (W.name cfg.workload) cfg.seed)
  in
  Obs.enable ();
  Obs.reset ();
  let n, traced_ns, _ =
    replay ~budget_ns:(cfg.seconds *. 1e9 /. 2.0) ~traced:true reqs max_int
  in
  Obs.disable ();
  Obs.write_jsonl file;
  Obs.reset ();
  let _, plain_ns, runs = replay ~traced:false reqs n in
  let t =
    match Trace.load file with Ok t -> t | Error msg -> failwith ("trace: " ^ msg)
  in
  Printf.printf "trace: %d request(s) replayed, written to %s\n" n file;
  let spans = t.Trace.spans in
  let self = Stats.self_times spans in
  let busy name = ms (Stats.busy_ns ~name spans) in
  let counter name = or_zero (List.assoc_opt name t.Trace.counters) in
  let runs_of v = Option.value ~default:[] (Hashtbl.find_opt runs v) in
  let accepted = counter "schedule.moves.accepted" in
  let moves = accepted +. counter "schedule.moves.rejected" in
  let chunk_ns = Stats.busy_ns ~name:"pool.chunk" spans in
  List.map (fun v -> ("verbs.run_ms.p50." ^ P.verb_name v, median_ms (List.map fst (runs_of v))))
    compute_verbs
  @ List.map
      (fun v ->
        let words = List.map snd (runs_of v) in
        ( "verbs.minor_mwords." ^ P.verb_name v,
          match words with
          | [] -> 0.0
          | _ -> List.fold_left ( +. ) 0.0 words /. float_of_int (List.length words) /. 1e6 ))
      compute_verbs
  @ [ ("verbs.serialize.self_ms", ms (Stats.sum_self ~name:"serve.serialize" self));
      ("verbs.execute.self_ms", ms (Stats.sum_self ~name:"serve.execute" self));
      ("synth.plan.synthesize.busy_ms", busy "plan.synthesize");
      ("netlist.fault_sim.run.busy_ms", busy "fault_sim.run");
      ("netlist.fault_sim.faults", counter "fault_sim.faults");
      ("dsp.spectrum.analyze.busy_ms", busy "spectrum.analyze");
      ("dsp.spectrum.captures", counter "spectrum.captures");
      ("dsp.fft.transforms", counter "fft.transforms");
      ("dsp.fft.plan.build.busy_ms", busy "fft.plan.build");
      ("soc.schedule.derive.busy_ms", busy "schedule.derive");
      ("soc.schedule.greedy.busy_ms", busy "schedule.greedy");
      ("soc.schedule.anneal.busy_ms", busy "schedule.anneal");
      ("soc.anneal.accept_ratio", if moves > 0.0 then accepted /. moves else 0.0);
      ("stat.monte_carlo.sample_array.busy_ms", busy "monte_carlo.sample_array");
      ("util.pool.busy_share",
       if traced_ns > 0.0 then chunk_ns /. (float_of_int pool_domains *. traced_ns) else 0.0);
      ("util.pool.steals", counter "pool.steals");
      ("trace.residual_share", Stats.residual_share ~root:"bench.request" self);
      (* the traced pass runs first and also pays first-touch costs, so
         this is an upper bound *)
      ("trace.overhead_pct", if plain_ns > 0.0 then 100.0 *. (traced_ns /. plain_ns -. 1.0) else 0.0) ]

(* ---- report ---- *)

let report cfg ~attempted ~failed values =
  let value name =
    match List.assoc_opt name values with
    | Some v when Float.is_finite v -> v
    | Some _ -> failwith ("metric " ^ name ^ " is not a finite number")
    | None -> failwith ("metric " ^ name ^ " was not measured")
  in
  let printed = end_to_end @ if cfg.trace then per_layer else client_layer @ serve_layer in
  List.iter (fun (name, unit_) -> Printf.printf "%-40s %16.6f %s\n" name (value name) unit_) printed;
  let reported = if cfg.trace then per_layer else end_to_end in
  let b = Buffer.create 4096 in
  Json.obj_to b
    [ ("correct", Json.bool (failed = 0));
      ("attempted", Json.int attempted);
      ("failed", Json.int failed);
      ( "metrics",
        fun b ->
          Json.obj_to b
            (List.map
               (fun (name, unit_) ->
                 (name, fun b -> Json.obj_to b [ ("value", Json.num_exact (value name)); ("unit", Json.str unit_) ]))
               reported) ) ];
  print_endline (Buffer.contents b)

let run cfg =
  mkdir_p cfg.out_dir;
  let (timed, checked), setup_s =
    match cfg.workload with
    | W.Cli_paper ->
      let setup_s = setup_cli cfg in
      (run_cli cfg, setup_s)
    | W.Serve_sweep | W.Serve_dup | W.Serve_hot ->
      let d, setup_s = setup_serve cfg in
      let timed, bodies = run_serve cfg d in
      let st = stop_daemon d in
      ( ( { timed with
            metrics = ("peak_rss_mb", float_of_int st.Proc.maxrss_kb /. 1024.0) :: timed.metrics },
          bodies ),
        setup_s )
  in
  (* replay before the output check, so the traced pass starts as cold as
     a fresh process (FFT plans not yet built) *)
  let layers = if cfg.trace then trace_layers cfg timed.sent else [] in
  let mismatches =
    List.length
      (List.filter (fun (req, body) -> not (same_as_in_process req body))
         (sample ~seed:cfg.seed checked))
  in
  let failed = timed.failed + mismatches in
  Printf.printf "workload %s, seed %d: %d request(s), %d failed\n" (W.name cfg.workload) cfg.seed
    timed.attempted failed;
  report cfg ~attempted:timed.attempted ~failed
    ((("setup_s", setup_s) :: timed.metrics) @ layers);
  failed

let () =
  let cfg = parse_args Sys.argv in
  Unix.putenv "MSOC_DOMAINS" (string_of_int pool_domains);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Proc.stop_all;
  (* a stopped bench stops its daemon and children too *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 1))) [ Sys.sigterm; Sys.sigint ];
  match run cfg with
  | 0 -> exit 0
  | _ -> exit 1
  | exception e ->
    Printf.eprintf "bench: %s\n%!" (match e with Failure m -> m | e -> Printexc.to_string e);
    exit 1
