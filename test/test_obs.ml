(* Telemetry subsystem tests: span nesting and timing, histogram bucket
   edges, deterministic merge of per-domain sinks across pool sizes,
   disabled-path no-ops, generations (exports scoped to the caller's,
   per-request resets folding into the lifetime store exactly once), the
   JSONL trace's round trip through [Trace.parse], and structural
   validation of the JSONL, Chrome trace_event and Prometheus views.
   What a profile recorded is read back the way every consumer reads it:
   the parsed JSONL trace or the exposition.

   Telemetry state is process-global; every test starts from
   [Obs.reset] + an explicit enable/disable and disables on exit, so
   tests stay independent even though they share the registry. *)

module Obs = Msoc_obs.Obs
module Trace = Msoc_obs.Trace
module Pool = Msoc_util.Pool
module Prng = Msoc_util.Prng
module Monte_carlo = Msoc_stat.Monte_carlo

let pool_sizes = [ 1; 2; 4 ]

let with_recording f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.disable (); Obs.reset ()) f

(* The caller's generation as every consumer reads it. *)
let recorded () =
  match Trace.parse (Obs.jsonl ()) with
  | Ok t -> t
  | Error e -> Alcotest.failf "the export does not parse: %s" e

(* (count, total ns) of one span path *)
let find_span path t =
  match List.filter (fun sp -> String.equal sp.Trace.sp_path path) t.Trace.spans with
  | [] ->
    Alcotest.failf "span %S not found (have: %s)" path
      (String.concat ", " (List.map (fun sp -> sp.Trace.sp_path) t.Trace.spans))
  | spans -> (List.length spans, List.fold_left (fun acc sp -> acc +. sp.Trace.sp_dur_ns) 0.0 spans)

let counter name t =
  int_of_float (Option.value ~default:0.0 (List.assoc_opt name t.Trace.counters))

let find_hist name t =
  match List.find_opt (fun h -> String.equal h.Trace.hist name) t.Trace.hists with
  | Some h -> h
  | None -> Alcotest.failf "histogram %S not found" name

let contains_sub text needle =
  let nl = String.length needle and tl = String.length text in
  let rec scan i =
    i + nl <= tl && (String.equal (String.sub text i nl) needle || scan (i + 1))
  in
  scan 0

(* The value of an unlabelled series in an exposition, 0 when absent. *)
let prom_value text name =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.index_opt line ' ' with
         | Some i when String.equal (String.sub line 0 i) name ->
           int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
         | _ -> None)
  |> Option.value ~default:0

(* ---- spans ---- *)

let test_span_nesting () =
  with_recording @@ fun () ->
  let r =
    Obs.span "outer" (fun () ->
        let a = Obs.span "inner" (fun () -> 20) in
        let b = Obs.span "inner" (fun () -> 22) in
        a + b)
  in
  Alcotest.(check int) "span returns the body's value" 42 r;
  let t = recorded () in
  let outer_count, outer_total = find_span "outer" t in
  let inner_count, inner_total = find_span "outer/inner" t in
  Alcotest.(check int) "outer count" 1 outer_count;
  Alcotest.(check int) "inner count" 2 inner_count;
  Alcotest.(check bool) "durations are non-negative" true (inner_total >= 0.0);
  Alcotest.(check bool) "outer contains both inners" true (outer_total >= inner_total);
  (* sibling after the nest is top-level again, not nested *)
  Obs.span "sibling" (fun () -> ());
  ignore (find_span "sibling" (recorded ()))

let test_span_exception_unwinds () =
  with_recording @@ fun () ->
  (match Obs.span "outer" (fun () -> Obs.span "boom" (fun () -> failwith "x")) with
  | () -> Alcotest.fail "expected exception"
  | exception Failure _ -> ());
  (* the stack unwound: a fresh span is recorded at the top level *)
  Obs.span "after" (fun () -> ());
  ignore (find_span "after" (recorded ()))

let test_clock_monotone () =
  let a = Obs.now_ns () in
  let s = ref 0 in
  for i = 1 to 10_000 do
    s := !s + i
  done;
  ignore !s;
  let b = Obs.now_ns () in
  Alcotest.(check bool) "clock does not go backwards" true (Int64.compare b a >= 0)

(* ---- histogram buckets ---- *)

(* The edges of the one bucket [v] lands in, as the trace exports them:
   bucket 0 (non-positive and NaN) is [-inf, 0], the next starts at 0,
   each later one at a power of two and spans up to the next one. *)
let bucket_of v =
  with_recording @@ fun () ->
  Obs.observe "edge" v;
  match (find_hist "edge" (recorded ())).Trace.buckets with
  | [ (lo, hi, 1) ] -> (lo, hi)
  | _ -> Alcotest.failf "%h: expected exactly one bucket" v

let test_bucket_edges () =
  let check name expected v = Alcotest.(check (float 0.0)) name expected (fst (bucket_of v)) in
  (* non-positive and NaN collapse into bucket 0 *)
  List.iter
    (fun v ->
      Alcotest.(check bool) (Printf.sprintf "%g in bucket 0" v) true
        (bucket_of v = (neg_infinity, 0.0)))
    [ 0.0; -3.0; Float.nan ];
  (* powers of two are exact bucket edges: [2^k, 2^(k+1)) *)
  check "1.0" 1.0 1.0;
  check "just under 1.0" 0.5 0.9999999;
  check "2.0" 2.0 2.0;
  check "3.0 shares 2.0's bucket" 2.0 3.0;
  check "4.0" 4.0 4.0;
  check "0.5" 0.5 0.5;
  (* extremes clamp to the end buckets rather than escaping the table *)
  Alcotest.(check bool) "tiny" true (bucket_of 1e-300 = (0.0, Float.ldexp 1.0 (-63)));
  Alcotest.(check bool) "huge" true (bucket_of 1e300 = (Float.ldexp 1.0 64, infinity));
  Alcotest.(check bool) "infinity" true (bucket_of infinity = (Float.ldexp 1.0 64, infinity));
  (* every positive value lies inside its bucket's [lo, hi), hi = 2 lo *)
  List.iter
    (fun v ->
      let lo, hi = bucket_of v in
      Alcotest.(check bool) (Printf.sprintf "%g in [%g, %g)" v lo hi) true
        (lo <= v && v < hi && hi = 2.0 *. lo))
    [ 1.0; 1.5; 2.0; 3.999; 4.0; 100.0; 1e6; 1e-6; 0.75; 12345.678 ];
  (* the buckets tile the positive axis: 2^k starts a bucket, and the
     float just below it lies in the bucket before *)
  for k = -62 to 64 do
    let edge = Float.ldexp 1.0 k in
    check (Printf.sprintf "2^%d starts a bucket" k) edge edge;
    check (Printf.sprintf "below 2^%d" k) (Float.ldexp 1.0 (k - 1)) (Float.pred edge)
  done

let test_histogram_stats () =
  with_recording @@ fun () ->
  List.iter (Obs.observe "h") [ 1.0; 2.0; 4.0; 4.0; -1.0 ];
  match (recorded ()).Trace.hists with
  | [ h ] ->
    Alcotest.(check string) "name" "h" h.Trace.hist;
    Alcotest.(check int) "count" 5 h.Trace.hist_count;
    Alcotest.(check (float 1e-9)) "sum" 10.0 h.Trace.sum;
    Alcotest.(check (float 0.0)) "min" (-1.0) h.Trace.min_value;
    Alcotest.(check (float 0.0)) "max" 4.0 h.Trace.max_value;
    Alcotest.(check bool)
      "buckets: the non-positive one, 1.0's, 2.0's and 4.0's holding two" true
      (h.Trace.buckets
      = [ (neg_infinity, 0.0, 1); (1.0, 2.0, 1); (2.0, 4.0, 1); (4.0, 8.0, 2) ])
  | hs -> Alcotest.failf "expected one histogram, got %d" (List.length hs)

(* The summary's p95 column is the upper edge of the bucket holding the
   95th percentile, as exported, clamped to the maximum. *)
let test_histogram_p95 () =
  with_recording @@ fun () ->
  List.iter (Obs.observe "lat") (100.0 :: List.init 19 (fun _ -> 3.0));
  let row =
    String.split_on_char '\n' (Trace.summary (recorded ()))
    |> List.map (fun l -> List.filter (( <> ) "") (String.split_on_char ' ' l))
    |> List.find_opt (function "lat" :: _ -> true | _ -> false)
  in
  (* 19 of 20 values lie in [2, 4): p95 <= 4; count, min, mean, max *)
  Alcotest.(check (option (list string))) "histogram row"
    (Some [ "lat"; "20"; "3"; "7.85"; "4"; "100" ]) row

(* ---- deterministic merge across pool sizes ---- *)

(* Pooled workload probing from every task: counter totals, histogram
   merges, and the computed result must be identical for pool sizes
   1/2/4 (and identical to the telemetry-off result). *)
let test_merge_determinism () =
  let n = 1000 in
  let task i =
    Obs.count "merge.items";
    Obs.observe "merge.values" (float_of_int (i mod 17));
    float_of_int (i * i mod 101)
  in
  let reference =
    Obs.disable ();
    Obs.reset ();
    Pool.with_pool ~size:1 (fun pool -> Pool.parallel_init pool n task)
  in
  List.iter
    (fun size ->
      with_recording @@ fun () ->
      (* the size-1 run is inline and dispatches no chunk; at every other
         size the grain of 16 makes many *)
      let got = Pool.with_pool ~size (fun pool -> Pool.parallel_init ~grain:16 pool n task) in
      Alcotest.(check (array (float 0.0)))
        (Printf.sprintf "pooled result identical with telemetry on (size %d)" size)
        reference got;
      let t = recorded () in
      Alcotest.(check int) (Printf.sprintf "counter total (size %d)" size) n
        (counter "merge.items" t);
      let h = find_hist "merge.values" t in
      Alcotest.(check int) (Printf.sprintf "histogram count (size %d)" size) n h.Trace.hist_count;
      let expected_sum =
        let acc = ref 0.0 in
        for i = 0 to n - 1 do
          acc := !acc +. float_of_int (i mod 17)
        done;
        !acc
      in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "histogram sum (size %d)" size)
        expected_sum h.Trace.sum;
      (* every chunk the pool dispatched is accounted for in the spans *)
      let chunks =
        List.length (List.filter (fun sp -> sp.Trace.sp_name = "pool.chunk") t.Trace.spans)
      in
      let observed =
        List.fold_left
          (fun acc h -> if h.Trace.hist = "pool.chunk.items" then h.Trace.hist_count else acc)
          0 t.Trace.hists
      in
      Alcotest.(check int)
        (Printf.sprintf "chunk spans match the chunk-size observations (size %d)" size)
        observed chunks)
    pool_sizes

let test_monte_carlo_identical_with_telemetry () =
  let trials = 2000 in
  let f g _ = Prng.float g in
  let run () =
    Pool.with_pool ~size:4 (fun pool ->
        Monte_carlo.sample_array_pooled ~pool ~trials ~rng:(Prng.create 77) ~f ())
  in
  Obs.disable ();
  Obs.reset ();
  let off = run () in
  let on = with_recording run in
  Alcotest.(check (array (float 0.0))) "telemetry does not perturb sampled values" off on

(* ---- disabled path ---- *)

let test_disabled_noop () =
  Obs.disable ();
  Obs.reset ();
  Obs.count "dead.counter";
  Obs.observe "dead.hist" 1.0;
  let v = Obs.span "dead.span" (fun () -> 7) in
  Alcotest.(check int) "span still runs the body" 7 v;
  let t = Obs.start_span "dead.manual" in
  Obs.stop_span t ~args:(fun () -> Alcotest.fail "lazy args must not run when disabled");
  Alcotest.(check string) "no spans, counters or histograms recorded" "" (Obs.jsonl ())

(* ---- exporter validation ---- *)

(* Structural validation goes through the library's own JSON parser
   (lib/obs/json.ml) — the same one the bench-report round trip uses. *)
module Mini_json = struct
  include Msoc_obs.Json

  let str_exn = string_exn
  let num_exn = number_exn
end

let record_reference_profile () =
  (* a profile with nesting, a pooled stage (multiple domain tracks),
     counters and a histogram — exercises every exporter feature *)
  Obs.span "root" (fun () ->
      Obs.span "stage" (fun () -> Obs.count "export.counter");
      Obs.observe "export.hist" 3.0;
      Pool.with_pool ~size:2 (fun pool ->
          ignore (Pool.parallel_init pool 64 (fun i -> float_of_int i))))

let test_chrome_trace_valid () =
  with_recording @@ fun () ->
  record_reference_profile ();
  let t = recorded () in
  let chrome =
    match Trace.to_chrome (Obs.jsonl ()) with
    | Ok text -> text
    | Error e -> Alcotest.failf "chrome conversion failed: %s" e
  in
  let json = Mini_json.parse chrome in
  let events =
    match Mini_json.member "traceEvents" json with
    | Some (Mini_json.Array evs) -> evs
    | _ -> Alcotest.fail "traceEvents array missing"
  in
  let complete, metadata =
    List.partition (fun e -> String.equal (Mini_json.str_exn "ph" e) "X") events
  in
  List.iter
    (fun e ->
      Alcotest.(check string) "metadata-only other phases" "M" (Mini_json.str_exn "ph" e))
    metadata;
  (* every recorded span appears exactly once as a complete event — the
     X form pairs begin/end by construction, so none can be unbalanced *)
  Alcotest.(check int) "one X event per recorded span" (List.length t.Trace.spans)
    (List.length complete);
  List.iter
    (fun e ->
      ignore (Mini_json.str_exn "name" e);
      let ts = Mini_json.num_exn "ts" e in
      let dur = Mini_json.num_exn "dur" e in
      let tid = Mini_json.num_exn "tid" e in
      Alcotest.(check bool) "ts >= 0" true (ts >= 0.0);
      Alcotest.(check bool) "dur >= 0" true (dur >= 0.0);
      Alcotest.(check bool) "tid is a domain id" true (tid >= 0.0))
    complete;
  (* one thread_name metadata record per domain track *)
  let tracks = List.sort_uniq compare (List.map (fun sp -> sp.Trace.sp_track) t.Trace.spans) in
  let thread_names =
    List.filter (fun e -> String.equal (Mini_json.str_exn "name" e) "thread_name") metadata
  in
  Alcotest.(check bool)
    "a thread track per active domain" true
    (List.length thread_names >= List.length tracks)

let test_jsonl_valid () =
  with_recording @@ fun () ->
  record_reference_profile ();
  let lines =
    String.split_on_char '\n' (Obs.jsonl ()) |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "some lines" true (List.length lines > 0);
  let kinds = Hashtbl.create 8 in
  List.iter
    (fun line ->
      let j = Mini_json.parse line in
      let kind = Mini_json.str_exn "type" j in
      Hashtbl.replace kinds kind (1 + Option.value ~default:0 (Hashtbl.find_opt kinds kind));
      ignore (Mini_json.num_exn "track" j))
    lines;
  List.iter
    (fun kind ->
      Alcotest.(check bool) (Printf.sprintf "has %s records" kind) true
        (Hashtbl.mem kinds kind))
    [ "span"; "counter"; "histogram"; "track" ]

(* The encoder (Obs) and the decoder (Trace) together lose nothing: what
   a profile recorded — nested spans, a pooled run, counters and
   histograms — is exactly what the parsed trace holds. *)
let test_jsonl_round_trip () =
  with_recording @@ fun () ->
  let values = [ 123456789.0; 0.1; -2.5; 3.0 ] in
  Obs.span "outer" (fun () ->
      Obs.span "inner" (fun () -> ());
      let t0 = Obs.now_ns () in
      Obs.record_span "known" ~start_ns:t0 ~stop_ns:(Int64.add t0 123_456_789L);
      Obs.count ~by:7 "rt.counter";
      List.iter (Obs.observe "rt.hist") values;
      Pool.with_pool ~size:2 (fun pool ->
          Pool.parallel_iter_grained pool ~n:64 ~grain:8 ~f:(fun ~slot:_ ~lo:_ ~hi:_ -> ()) ()));
  let t = recorded () in
  (* spans: paths, counts and durations *)
  Alcotest.(check int) "outer" 1 (fst (find_span "outer" t));
  Alcotest.(check int) "inner nests under outer" 1 (fst (find_span "outer/inner" t));
  Alcotest.(check (pair int (float 0.0))) "a known duration, to the nanosecond" (1, 123456789.0)
    (find_span "outer/known" t);
  let chunks = List.filter (fun sp -> sp.Trace.sp_name = "pool.chunk") t.Trace.spans in
  Alcotest.(check int) "one span per chunk of 8 items" 8 (List.length chunks);
  Alcotest.(check bool) "every chunk carries its slot" true
    (List.for_all (fun sp -> List.mem sp.Trace.sp_slot [ Some 0; Some 1 ]) chunks);
  Alcotest.(check (list int)) "both slots of the pool listed" [ 0; 1 ]
    (List.map (fun s -> s.Trace.slot) t.Trace.slots);
  Alcotest.(check int) "their chunks sum to 8" 8
    (List.fold_left (fun acc s -> acc + s.Trace.chunks) 0 t.Trace.slots);
  (* counter totals *)
  Alcotest.(check int) "counter" 7 (counter "rt.counter" t);
  (* histograms: count, sum, min, max and buckets, exactly *)
  let h = find_hist "rt.hist" t in
  Alcotest.(check int) "count" 4 h.Trace.hist_count;
  Alcotest.(check (float 0.0)) "sum" (List.fold_left ( +. ) 0.0 values) h.Trace.sum;
  Alcotest.(check (float 0.0)) "min" (-2.5) h.Trace.min_value;
  Alcotest.(check (float 0.0)) "max" 123456789.0 h.Trace.max_value;
  Alcotest.(check bool) "buckets" true
    (h.Trace.buckets
    = [ (neg_infinity, 0.0, 1);
        (0.0625, 0.125, 1);
        (2.0, 4.0, 1);
        (Float.ldexp 1.0 26, Float.ldexp 1.0 27, 1) ]);
  let items = find_hist "pool.chunk.items" t in
  Alcotest.(check bool) "the chunk-size histogram, merged across tracks" true
    (items.Trace.hist_count = 8 && items.Trace.sum = 64.0 && items.Trace.buckets = [ (8.0, 16.0, 8) ]);
  (* every track reports its loss, here none *)
  Alcotest.(check bool) "no events dropped on any track" true
    (t.Trace.dropped <> [] && List.for_all (fun (_, n) -> n = 0) t.Trace.dropped)

let test_summary_renders () =
  with_recording @@ fun () ->
  record_reference_profile ();
  let text = Trace.summary (recorded ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "summary mentions %s" needle) true
        (contains_sub text needle))
    [ "Spans"; "Counters"; "root"; "export.counter"; "Histograms"; "export.hist";
      "Domain tracks" ]

(* ---- prometheus exposition ---- *)

let test_prometheus_exposition () =
  with_recording @@ fun () ->
  record_reference_profile ();
  let text = Obs.to_prometheus () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "exposition contains %S" needle) true
        (contains_sub text needle))
    [ (* counter family, sanitized to [a-zA-Z0-9_:] with a _total suffix *)
      "# TYPE msoc_export_counter_total counter";
      "msoc_export_counter_total 1";
      (* histogram family with cumulative buckets, +Inf terminal, sum/count *)
      "# TYPE msoc_export_hist histogram";
      "le=\"+Inf\"";
      "msoc_export_hist_sum 3";
      "msoc_export_hist_count 1";
      (* span stats as a labelled summary *)
      "# TYPE msoc_span_duration_nanoseconds summary";
      "quantile=\"0.95\"";
      "msoc_dropped_span_events_total 0" ];
  (* well-formed exposition: every non-comment line is "name value" or
     "name{labels} value" with a parseable float value *)
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then begin
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "no value on line %S" line
        | Some i ->
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          Alcotest.(check bool) (Printf.sprintf "numeric value on %S" line) true
            (match float_of_string_opt v with Some _ -> true | None -> false)
      end)
    (String.split_on_char '\n' text);
  (* the +Inf bucket equals _count, as Prometheus requires *)
  match
    List.find_opt
      (fun l -> contains_sub l "msoc_export_hist_bucket{le=\"+Inf\"}")
      (String.split_on_char '\n' text)
  with
  | None -> Alcotest.fail "terminal +Inf bucket missing"
  | Some l ->
    Alcotest.(check bool) "+Inf bucket holds every observation" true
      (contains_sub l " 1")

let test_prometheus_span_summary () =
  (* the exposition's span summary is [Trace.by_path] over the same
     generation's JSONL, line for line, so its p95, sum and count are the
     ones `msoc trace summary` prints *)
  with_recording @@ fun () ->
  record_reference_profile ();
  for _ = 1 to 40 do
    Obs.span "repeated" (fun () -> ())
  done;
  let stats = Trace.by_path (recorded ()).Trace.spans in
  Alcotest.(check bool) "a path with enough spans to rank a p95" true
    (List.exists (fun (st : Trace.path_stat) -> st.count >= 20) stats);
  let expected =
    "# TYPE msoc_span_duration_nanoseconds summary"
    :: List.concat_map
         (fun (st : Trace.path_stat) ->
           [ Printf.sprintf {|msoc_span_duration_nanoseconds{path="%s",quantile="0.95"} %.0f|}
               st.path st.p95_ns;
             Printf.sprintf {|msoc_span_duration_nanoseconds_sum{path="%s"} %.0f|} st.path
               st.total_ns;
             Printf.sprintf {|msoc_span_duration_nanoseconds_count{path="%s"} %d|} st.path
               st.count ])
         stats
  in
  Alcotest.(check (list string)) "the span summary is Trace.by_path" expected
    (List.filter
       (fun line -> contains_sub line "msoc_span_duration_nanoseconds")
       (String.split_on_char '\n' (Obs.to_prometheus ())))

let test_dropped_events_warned () =
  with_recording @@ fun () ->
  (* overflow one sink past its event cap *)
  for _ = 1 to Obs.max_events + 16 do
    Obs.span "overflow" (fun () -> ())
  done;
  Alcotest.(check int) "the exposition reports every event past the cap" 16
    (prom_value (Obs.to_prometheus ()) "msoc_dropped_span_events_total");
  (* the export path announces the loss loudly on stderr *)
  let file = Filename.temp_file "msoc_warn" ".txt" in
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  Obs.warn_if_dropped ();
  flush stderr;
  Unix.dup2 saved Unix.stderr;
  Unix.close saved;
  let ic = open_in file in
  let warning = try input_line ic with End_of_file -> "" in
  close_in ic;
  Sys.remove file;
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "warning mentions %S" needle) true
        (contains_sub warning needle))
    [ "WARNING"; "dropped"; string_of_int Obs.max_events ]

(* Telemetry and progress heartbeats on vs off must not change
   fault-detection results — spans, counters and heartbeat cells carry no
   result data.  Checked at every pool size, including oversubscribed
   (8). *)
let test_faultsim_telemetry_determinism () =
  let config =
    { Msoc_synth.Digital_test.default_config with
      Msoc_synth.Digital_test.taps = 5;
      input_bits = 8;
      coeff_bits = 6 }
  in
  let fir = Msoc_synth.Digital_test.build config in
  let faults = Msoc_synth.Digital_test.collapsed_faults fir in
  let samples = 128 in
  let stim i = (i * 37) land 0xff in
  let drive sim cycle =
    Msoc_netlist.Fir_netlist.drive fir sim (stim cycle)
  in
  let detect pool =
    Msoc_netlist.Fault_sim.detect_exact ?pool fir.Msoc_netlist.Fir_netlist.circuit
      ~output:Msoc_netlist.Fir_netlist.output_bus_name ~drive ~samples ~faults
  in
  Obs.disable ();
  Obs.reset ();
  let reference = detect None in
  Alcotest.(check bool) "some faults detected" true (Array.exists Fun.id reference);
  let sizes = [ 1; 2; 4; 8 ] in
  List.iter
    (fun size ->
      let off = Pool.with_pool ~size (fun p -> detect (Some p)) in
      Alcotest.(check (array bool)) (Printf.sprintf "telemetry off, size %d" size) reference off)
    sizes;
  (* telemetry and heartbeats on; the ticker renders nothing *)
  with_recording @@ fun () ->
  Msoc_obs.Progress.with_ticker ~render:(fun ~elapsed_s:_ -> "") @@ fun () ->
  List.iter
    (fun size ->
      let on = Pool.with_pool ~size (fun p -> detect (Some p)) in
      Alcotest.(check (array bool)) (Printf.sprintf "telemetry on, size %d" size) reference on)
    sizes

(* The ticker checks its stop flag between short sleeps, so the heartbeat
   ends with its work.  Under dune stderr is not a tty, where the render
   cadence is 2 s: a ticker that slept a whole interval before looking at
   the flag held an empty body for 2 s. *)
let test_ticker_returns_with_work () =
  let t0 = Unix.gettimeofday () in
  Msoc_obs.Progress.with_ticker ~render:(fun ~elapsed_s:_ -> "") ignore;
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed >= 0.5 then Alcotest.failf "with_ticker returned after %.3f s" elapsed

(* ---- generations: reset_domain and generation-scoped exports ---- *)

let await flag =
  let deadline = Int64.add (Obs.now_ns ()) 10_000_000_000L in
  while (not (Atomic.get flag)) && Int64.compare (Obs.now_ns ()) deadline < 0 do
    Domain.cpu_relax ()
  done;
  if not (Atomic.get flag) then Alcotest.fail "the other domain never signalled"

let test_domain_scope () =
  (* two domains record concurrently; each one's export holds exactly its
     own generation, reset_domain folds and clears only the caller's, and
     the exposition never reads a sibling's live sink *)
  with_recording @@ fun () ->
  Obs.span "acceptor.local" (fun () -> Obs.count "local.requests");
  let recorded = Atomic.make false and folded = Atomic.make false in
  let other =
    Domain.spawn (fun () ->
        Obs.span "executor.remote" (fun () -> Obs.count "remote.requests");
        let before = Obs.jsonl () in
        Atomic.set recorded true;
        await folded;
        let after = Obs.jsonl () in
        Obs.reset_domain ();
        (before, after))
  in
  await recorded;
  let own = Obs.jsonl () in
  Alcotest.(check bool) "local sees its own span" true (contains_sub own "acceptor.local");
  Alcotest.(check bool) "local export excludes the other domain" false
    (contains_sub own "executor.remote");
  Alcotest.(check int) "a sibling's live counter is not exposed" 0
    (prom_value (Obs.to_prometheus ()) "msoc_remote_requests_total");
  Obs.reset_domain ();
  Alcotest.(check string) "reset_domain clears the caller's generation" "" (Obs.jsonl ());
  Alcotest.(check int) "its counter is folded into the lifetime store" 1
    (prom_value (Obs.to_prometheus ()) "msoc_local_requests_total");
  Atomic.set folded true;
  let remote_before, remote_after = Domain.join other in
  Alcotest.(check bool) "remote sees its own span" true
    (contains_sub remote_before "executor.remote");
  Alcotest.(check bool) "remote export excludes the other domain" false
    (contains_sub remote_before "acceptor.local");
  Alcotest.(check bool) "a sibling's reset leaves this generation alone" true
    (contains_sub remote_after "executor.remote");
  let text = Obs.to_prometheus () in
  Alcotest.(check int) "the sibling's fold reaches the lifetime store" 1
    (prom_value text "msoc_remote_requests_total");
  Alcotest.(check int) "each count folds once" 1 (prom_value text "msoc_local_requests_total");
  (* reset starts a session: the lifetime store empties too *)
  Obs.reset ();
  Alcotest.(check int) "reset empties the lifetime store" 0
    (prom_value (Obs.to_prometheus ()) "msoc_local_requests_total")

(* ---- pool-worker sinks join their caller's generation ---- *)

(* One parallel run on a 2-slot pool in which each slot executes exactly
   one [pool.chunk]: each chunk waits (bounded) until both have started,
   so the caller cannot steal the worker's chunk. *)
let one_chunk_each pool =
  let started = Atomic.make 0 in
  Pool.parallel_iter_grained pool ~n:2 ~grain:1
    ~f:(fun ~slot:_ ~lo:_ ~hi:_ ->
      Atomic.incr started;
      let deadline = Int64.add (Obs.now_ns ()) 10_000_000_000L in
      while Atomic.get started < 2 && Int64.compare (Obs.now_ns ()) deadline < 0 do
        Domain.cpu_relax ()
      done)
    ()

let chunk_spans () =
  List.length
    (List.filter (fun sp -> String.equal sp.Trace.sp_path "pool.chunk") (recorded ()).Trace.spans)

let test_worker_sinks_follow_caller () =
  with_recording @@ fun () ->
  Pool.with_pool ~size:2 (fun pool ->
      (* a server executor: each request's trace holds its worker's chunk,
         then the request's generation is folded *)
      for _ = 1 to 50 do
        one_chunk_each pool;
        Alcotest.(check int) "the trace holds the caller's and the worker's chunk" 2
          (chunk_spans ());
        Obs.reset_domain ()
      done;
      Alcotest.(check int) "every chunk folded exactly once" 100
        (prom_value (Obs.to_prometheus ()) "msoc_pool_chunk_items_count");
      (* a worker leaving for a new caller folds what its old caller left *)
      one_chunk_each pool;
      let other =
        Domain.spawn (fun () ->
            one_chunk_each pool;
            let chunks = chunk_spans () in
            Obs.reset_domain ();
            chunks)
      in
      Alcotest.(check int) "the new caller's trace holds the worker's chunk" 2
        (Domain.join other);
      Obs.reset_domain ();
      Alcotest.(check int) "no chunk lost or counted twice" 104
        (prom_value (Obs.to_prometheus ()) "msoc_pool_chunk_items_count");
      (* the CLI: no reset between runs, every run's worker spans kept *)
      for _ = 1 to 50 do
        one_chunk_each pool
      done;
      Alcotest.(check int) "every run's chunks kept" 100 (chunk_spans ()))

(* ---- build info and the dropped-event counter ---- *)

let test_prometheus_build_info () =
  with_recording @@ fun () ->
  Obs.count "build.probe";
  Obs.set_build_info ~git_rev:"cafe123";
  Pool.with_pool ~size:2 (fun pool ->
      Pool.parallel_iter_grained pool ~n:64 ~grain:8 ~f:(fun ~slot:_ ~lo:_ ~hi:_ -> ()) ());
  let text = Obs.to_prometheus () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "exposition contains %S" needle) true
        (contains_sub text needle))
    [ "msoc_pool_chunk_items_count 8";
      "msoc_pool_chunk_items_sum 64";
      "# TYPE msoc_dropped_span_events_total counter";
      "msoc_dropped_span_events_total 0";
      "# TYPE msoc_build_info gauge";
      "git_rev=\"cafe123\"";
      "ocaml_version=\"";
      "pool_size=\"" ];
  Alcotest.(check bool) "build info is a 1-valued gauge" true
    (List.exists
       (fun l -> contains_sub l "msoc_build_info{" && contains_sub l "} 1")
       (String.split_on_char '\n' text));
  (* one name per count: no alias beside the dropped-event counter, and
     no family restating a chunk beside pool.chunk.items *)
  List.iter
    (fun family ->
      Alcotest.(check bool) (Printf.sprintf "no %s family" family) false
        (contains_sub text family))
    [ "msoc_obs_dropped_events_total"; "msoc_obs_timeline_overwritten_total";
      "msoc_pool_chunks_total"; "msoc_pool_items_total" ]

let () =
  Alcotest.run "msoc_obs"
    [ ( "spans",
        [ Alcotest.test_case "nesting and aggregation" `Quick test_span_nesting;
          Alcotest.test_case "exception unwinds the stack" `Quick test_span_exception_unwinds;
          Alcotest.test_case "clock monotone" `Quick test_clock_monotone ] );
      ( "histograms",
        [ Alcotest.test_case "bucket edges" `Quick test_bucket_edges;
          Alcotest.test_case "stats and merge" `Quick test_histogram_stats;
          Alcotest.test_case "summary p95 is the bucket's upper edge" `Quick test_histogram_p95 ] );
      ( "determinism",
        [ Alcotest.test_case "merge across pool sizes" `Quick test_merge_determinism;
          Alcotest.test_case "telemetry does not perturb results" `Quick
            test_monte_carlo_identical_with_telemetry;
          Alcotest.test_case "spans and heartbeats keep detection" `Quick
            test_faultsim_telemetry_determinism;
          Alcotest.test_case "ticker returns with its work" `Quick
            test_ticker_returns_with_work ] );
      ( "disabled",
        [ Alcotest.test_case "probes are no-ops" `Quick test_disabled_noop ] );
      ( "scope",
        [ Alcotest.test_case "per-domain reset and export" `Quick test_domain_scope;
          Alcotest.test_case "pool-worker sinks follow caller resets" `Quick
            test_worker_sinks_follow_caller ] );
      ( "exporters",
        [ Alcotest.test_case "chrome trace structure" `Quick test_chrome_trace_valid;
          Alcotest.test_case "jsonl structure" `Quick test_jsonl_valid;
          Alcotest.test_case "jsonl round trip through Trace.parse" `Quick
            test_jsonl_round_trip;
          Alcotest.test_case "text summary" `Quick test_summary_renders;
          Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
          Alcotest.test_case "prometheus build info and drop counter" `Quick
            test_prometheus_build_info;
          Alcotest.test_case "span summary is Trace.by_path" `Quick
            test_prometheus_span_summary;
          Alcotest.test_case "dropped events are warned about" `Quick
            test_dropped_events_warned ] ) ]
