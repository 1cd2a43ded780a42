(* Telemetry subsystem tests: span nesting and timing, histogram bucket
   edges, deterministic merge of per-domain sinks across pool sizes,
   disabled-path no-ops, generations (exports scoped to the caller's,
   per-request resets folding into the lifetime store exactly once), and
   structural validation of the Chrome trace_event / JSONL exports.

   Telemetry state is process-global; every test starts from
   [Obs.reset] + an explicit enable/disable and disables on exit, so
   tests stay independent even though they share the registry. *)

module Obs = Msoc_obs.Obs
module Pool = Msoc_util.Pool
module Prng = Msoc_util.Prng
module Monte_carlo = Msoc_stat.Monte_carlo

let pool_sizes = [ 1; 2; 4 ]

let with_recording f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.disable (); Obs.reset ()) f

let find_span path spans =
  match List.find_opt (fun s -> String.equal s.Obs.span_path path) spans with
  | Some s -> s
  | None ->
    Alcotest.failf "span %S not found (have: %s)" path
      (String.concat ", " (List.map (fun s -> s.Obs.span_path) spans))

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
  let spans = Obs.snapshot_spans () in
  let outer = find_span "outer" spans in
  let inner = find_span "outer/inner" spans in
  Alcotest.(check int) "outer count" 1 outer.Obs.span_count;
  Alcotest.(check int) "inner count" 2 inner.Obs.span_count;
  Alcotest.(check bool) "durations are non-negative" true (inner.Obs.total_ns >= 0.0);
  Alcotest.(check bool) "outer contains both inners"
    true (outer.Obs.total_ns >= inner.Obs.total_ns);
  Alcotest.(check bool) "p95 <= max" true (inner.Obs.p95_ns <= inner.Obs.max_ns);
  (* sibling after the nest is top-level again, not nested *)
  Obs.span "sibling" (fun () -> ());
  let spans = Obs.snapshot_spans () in
  ignore (find_span "sibling" spans)

let test_span_exception_unwinds () =
  with_recording @@ fun () ->
  (match Obs.span "outer" (fun () -> Obs.span "boom" (fun () -> failwith "x")) with
  | () -> Alcotest.fail "expected exception"
  | exception Failure _ -> ());
  (* the stack unwound: a fresh span is recorded at the top level *)
  Obs.span "after" (fun () -> ());
  ignore (find_span "after" (Obs.snapshot_spans ()))

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

let test_bucket_edges () =
  (* non-positive and NaN collapse into bucket 0 *)
  Alcotest.(check int) "zero" 0 (Obs.bucket_index 0.0);
  Alcotest.(check int) "negative" 0 (Obs.bucket_index (-3.0));
  Alcotest.(check int) "nan" 0 (Obs.bucket_index Float.nan);
  (* powers of two are exact bucket edges: [2^(i-65), 2^(i-64)) *)
  Alcotest.(check int) "1.0" 65 (Obs.bucket_index 1.0);
  Alcotest.(check int) "just under 1.0" 64 (Obs.bucket_index 0.9999999);
  Alcotest.(check int) "2.0" 66 (Obs.bucket_index 2.0);
  Alcotest.(check int) "3.0 shares 2.0's bucket" 66 (Obs.bucket_index 3.0);
  Alcotest.(check int) "4.0" 67 (Obs.bucket_index 4.0);
  Alcotest.(check int) "0.5" 64 (Obs.bucket_index 0.5);
  (* extremes clamp to the end buckets rather than escaping the table *)
  Alcotest.(check int) "tiny" 1 (Obs.bucket_index 1e-300);
  Alcotest.(check int) "huge" (Obs.bucket_count - 1) (Obs.bucket_index 1e300);
  Alcotest.(check int) "infinity" (Obs.bucket_count - 1) (Obs.bucket_index Float.infinity);
  (* every positive value lies inside its bucket's [lo, hi) bounds *)
  let check_value v =
    let i = Obs.bucket_index v in
    let lo, hi = Obs.bucket_bounds i in
    if 1 < i && i < Obs.bucket_count - 1 then
      Alcotest.(check bool)
        (Printf.sprintf "%g in [%g, %g)" v lo hi)
        true
        (lo <= v && v < hi)
  in
  List.iter check_value
    [ 1.0; 1.5; 2.0; 3.999; 4.0; 100.0; 1e6; 1e-6; 0.75; 12345.678 ];
  (* bounds tile the positive axis: bucket i's hi is bucket i+1's lo *)
  for i = 1 to Obs.bucket_count - 2 do
    let _, hi = Obs.bucket_bounds i in
    let lo', _ = Obs.bucket_bounds (i + 1) in
    Alcotest.(check (float 0.0)) (Printf.sprintf "tile %d" i) hi lo'
  done

let test_histogram_stats () =
  with_recording @@ fun () ->
  List.iter (Obs.observe "h") [ 1.0; 2.0; 4.0; 4.0; -1.0 ];
  match Obs.snapshot_hists () with
  | [ h ] ->
    Alcotest.(check string) "name" "h" h.Obs.hist;
    Alcotest.(check int) "count" 5 h.Obs.hist_count;
    Alcotest.(check (float 1e-9)) "sum" 10.0 h.Obs.sum;
    Alcotest.(check (float 0.0)) "min" (-1.0) h.Obs.min_value;
    Alcotest.(check (float 0.0)) "max" 4.0 h.Obs.max_value;
    let count_at i =
      match List.assoc_opt i h.Obs.buckets with Some c -> c | None -> 0
    in
    Alcotest.(check int) "bucket of 1.0" 1 (count_at 65);
    Alcotest.(check int) "bucket of 2.0" 1 (count_at 66);
    Alcotest.(check int) "bucket of 4.0 holds two" 2 (count_at 67);
    Alcotest.(check int) "non-positive bucket" 1 (count_at 0)
  | hs -> Alcotest.failf "expected one histogram, got %d" (List.length hs)

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
      (* an explicit grain keeps the size-1 run on the pool, so its chunks
         are accounted for below too *)
      let got = Pool.with_pool ~size (fun pool -> Pool.parallel_init ~grain:16 pool n task) in
      Alcotest.(check (array (float 0.0)))
        (Printf.sprintf "pooled result identical with telemetry on (size %d)" size)
        reference got;
      Alcotest.(check int)
        (Printf.sprintf "counter total (size %d)" size)
        n
        (Obs.counter_total "merge.items");
      (match
         List.find_opt
           (fun h -> String.equal h.Obs.hist "merge.values")
           (Obs.snapshot_hists ())
       with
      | None -> Alcotest.fail "merged histogram missing"
      | Some h ->
        Alcotest.(check int) (Printf.sprintf "histogram count (size %d)" size) n h.Obs.hist_count;
        let expected_sum =
          let acc = ref 0.0 in
          for i = 0 to n - 1 do
            acc := !acc +. float_of_int (i mod 17)
          done;
          !acc
        in
        Alcotest.(check (float 1e-6))
          (Printf.sprintf "histogram sum (size %d)" size)
          expected_sum h.Obs.sum);
      (* every chunk the pool dispatched is accounted for in the tracks *)
      let chunks =
        List.fold_left (fun acc tr -> acc + tr.Obs.track_chunks) 0 (Obs.snapshot_tracks ())
      in
      Alcotest.(check int)
        (Printf.sprintf "chunk spans match the chunk counter (size %d)" size)
        (Obs.counter_total "pool.chunks")
        chunks)
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
  Alcotest.(check int) "no counters" 0 (List.length (Obs.snapshot_counters ()));
  Alcotest.(check int) "no histograms" 0 (List.length (Obs.snapshot_hists ()));
  Alcotest.(check int) "no spans" 0 (List.length (Obs.snapshot_spans ()))

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
  let spans = Obs.snapshot_spans () in
  let recorded = List.fold_left (fun acc s -> acc + s.Obs.span_count) 0 spans in
  let json = Mini_json.parse (Obs.chrome_trace ()) in
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
  Alcotest.(check int) "one X event per recorded span" recorded (List.length complete);
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
  let tracks = Obs.snapshot_tracks () in
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

let test_summary_renders () =
  with_recording @@ fun () ->
  record_reference_profile ();
  let text = Obs.summary () in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec scan i = i + nl <= tl && (String.equal (String.sub text i nl) needle || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "summary mentions %s" needle) true
        (contains needle))
    [ "Spans"; "Counters"; "root"; "export.counter" ]

(* ---- prometheus exposition ---- *)

let contains_sub text needle =
  let nl = String.length needle and tl = String.length text in
  let rec scan i =
    i + nl <= tl && (String.equal (String.sub text i nl) needle || scan (i + 1))
  in
  scan 0

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

let test_dropped_events_warned () =
  with_recording @@ fun () ->
  (* overflow one sink past its event cap *)
  for _ = 1 to Obs.max_events + 16 do
    Obs.span "overflow" (fun () -> ())
  done;
  Alcotest.(check bool) "events were dropped" true (Obs.total_dropped () > 0);
  Alcotest.(check bool) "exposition reports the drop count" true
    (contains_sub (Obs.to_prometheus ())
       (Printf.sprintf "msoc_dropped_span_events_total %d" (Obs.total_dropped ())));
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

(* ---- worker timelines ---- *)

let test_timeline_events () =
  with_recording @@ fun () ->
  Pool.with_pool ~size:2 (fun pool ->
      ignore (Pool.parallel_init pool 256 float_of_int));
  let events = Obs.snapshot_timeline () in
  Alcotest.(check bool) "pooled run recorded timeline marks" true (List.length events > 0);
  let kinds = List.map (fun e -> e.Obs.tle_kind) events in
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Printf.sprintf "recorded a %s mark" (Obs.timeline_kind_name kind))
        true (List.mem kind kinds))
    [ Obs.Chunk_begin; Obs.Chunk_end; Obs.Idle ];
  List.iter
    (fun e ->
      Alcotest.(check bool) "epoch-relative timestamp is non-negative" true
        (e.Obs.tle_ts_ns >= 0L);
      Alcotest.(check bool) "gc words sampled" true (e.Obs.tle_minor_words >= 0.0))
    events;
  (* per track the ring is chronological, and GC words never decrease *)
  let by_track = Hashtbl.create 4 in
  List.iter
    (fun e ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_track e.Obs.tle_track) in
      Hashtbl.replace by_track e.Obs.tle_track (e :: prev))
    events;
  Hashtbl.iter
    (fun _track rev_events ->
      ignore
        (List.fold_left
           (fun (prev_ts, prev_minor) e ->
             Alcotest.(check bool) "track is chronological" true (e.Obs.tle_ts_ns >= prev_ts);
             Alcotest.(check bool) "minor words monotone" true
               (e.Obs.tle_minor_words >= prev_minor);
             (e.Obs.tle_ts_ns, e.Obs.tle_minor_words))
           (Int64.min_int, neg_infinity)
           (List.rev rev_events)))
    by_track;
  Alcotest.(check int) "nothing overwritten in a short run" 0 (Obs.timeline_overwritten ());
  (* the JSONL export carries the same marks *)
  let timeline_lines =
    String.split_on_char '\n' (Obs.jsonl ())
    |> List.filter (fun l -> l <> "")
    |> List.filter (fun l ->
           String.equal (Mini_json.str_exn "type" (Mini_json.parse l)) "timeline")
  in
  Alcotest.(check int) "jsonl timeline lines match the snapshot" (List.length events)
    (List.length timeline_lines);
  List.iter
    (fun l ->
      let j = Mini_json.parse l in
      let kind = Mini_json.str_exn "kind" j in
      Alcotest.(check bool) (Printf.sprintf "valid kind %S" kind) true
        (List.mem kind [ "begin"; "end"; "steal"; "idle" ]);
      ignore (Mini_json.num_exn "slot" j);
      ignore (Mini_json.num_exn "ts_ns" j);
      ignore (Mini_json.num_exn "minor_words" j);
      ignore (Mini_json.num_exn "major_words" j))
    timeline_lines

(* Timelines on vs off must not change fault-detection results — the
   per-domain ring writes carry no result data.  Checked at every pool
   size, including oversubscribed (8). *)
let test_faultsim_timeline_determinism () =
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
  List.iter
    (fun size ->
      (* telemetry (timelines) off *)
      let off = Pool.with_pool ~size (fun p -> detect (Some p)) in
      Alcotest.(check (array bool))
        (Printf.sprintf "timelines off, size %d" size)
        reference off;
      (* telemetry + progress heartbeats on *)
      with_recording (fun () ->
          Msoc_obs.Progress.enable ();
          Fun.protect ~finally:Msoc_obs.Progress.disable @@ fun () ->
          let on = Pool.with_pool ~size (fun p -> detect (Some p)) in
          Alcotest.(check (array bool))
            (Printf.sprintf "timelines on, size %d" size)
            reference on))
    [ 1; 2; 4; 8 ]

(* ---- collapsed stacks ---- *)

let test_collapse_paths () =
  let folded =
    Obs.collapse_paths
      [ ("a", 10_000_000.0);
        ("a/b", 4_000_000.0);
        ("a/b", 2_000_000.0);  (* duplicate paths are summed *)
        ("a/c", 3_000_000.0);
        ("d", 1_000_000.0) ]
  in
  (* self(a) = 10 - (4+2) - 3 = 1 ms; leaves keep their totals *)
  Alcotest.(check string) "self-time folding"
    "a 1000\na;b 6000\na;c 3000\nd 1000\n" folded;
  (* concurrent children can exceed the parent wall time: clamp at zero *)
  let clamped = Obs.collapse_paths [ ("p", 1_000_000.0); ("p/q", 5_000_000.0) ] in
  Alcotest.(check string) "negative self clamps to zero" "p 0\np;q 5000\n" clamped;
  Alcotest.(check string) "empty profile folds to nothing" "" (Obs.collapse_paths [])

let test_to_collapsed_matches_spans () =
  with_recording @@ fun () ->
  Obs.span "outer" (fun () -> Obs.span "inner" (fun () -> ()));
  let folded = Obs.to_collapsed () in
  Alcotest.(check bool) "outer stack present" true (contains_sub folded "outer ");
  Alcotest.(check bool) "nested stack uses semicolons" true
    (contains_sub folded "outer;inner ")

(* ---- generations: reset_domain and generation-scoped exports ---- *)

(* The value of an unlabelled series in an exposition, 0 when absent. *)
let prom_value text name =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.index_opt line ' ' with
         | Some i when String.equal (String.sub line 0 i) name ->
           int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
         | _ -> None)
  |> Option.value ~default:0

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
  List.fold_left
    (fun acc s -> if String.equal s.Obs.span_path "pool.chunk" then acc + s.Obs.span_count else acc)
    0 (Obs.snapshot_spans ())

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
        (prom_value (Obs.to_prometheus ()) "msoc_pool_chunks_total");
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
        (prom_value (Obs.to_prometheus ()) "msoc_pool_chunks_total");
      (* the CLI: no reset between runs, every run's worker spans kept *)
      for _ = 1 to 50 do
        one_chunk_each pool
      done;
      Alcotest.(check int) "every run's chunks kept" 100 (chunk_spans ()))

(* ---- build info and dropped-event alias ---- *)

let test_prometheus_build_info () =
  with_recording @@ fun () ->
  Obs.count "build.probe";
  Obs.set_build_info ~git_rev:"cafe123";
  let text = Obs.to_prometheus () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "exposition contains %S" needle) true
        (contains_sub text needle))
    [ "# TYPE msoc_obs_dropped_events_total counter";
      "msoc_obs_dropped_events_total 0";
      "# TYPE msoc_build_info gauge";
      "git_rev=\"cafe123\"";
      "ocaml_version=\"";
      "pool_size=\"" ];
  Alcotest.(check bool) "build info is a 1-valued gauge" true
    (List.exists
       (fun l -> contains_sub l "msoc_build_info{" && contains_sub l "} 1")
       (String.split_on_char '\n' text))

let () =
  Alcotest.run "msoc_obs"
    [ ( "spans",
        [ Alcotest.test_case "nesting and aggregation" `Quick test_span_nesting;
          Alcotest.test_case "exception unwinds the stack" `Quick test_span_exception_unwinds;
          Alcotest.test_case "clock monotone" `Quick test_clock_monotone ] );
      ( "histograms",
        [ Alcotest.test_case "bucket edges" `Quick test_bucket_edges;
          Alcotest.test_case "stats and merge" `Quick test_histogram_stats ] );
      ( "determinism",
        [ Alcotest.test_case "merge across pool sizes" `Quick test_merge_determinism;
          Alcotest.test_case "telemetry does not perturb results" `Quick
            test_monte_carlo_identical_with_telemetry;
          Alcotest.test_case "timelines do not perturb fault detection" `Quick
            test_faultsim_timeline_determinism ] );
      ( "timelines",
        [ Alcotest.test_case "pooled runs record slot marks" `Quick test_timeline_events ] );
      ( "flamegraph",
        [ Alcotest.test_case "collapse_paths folds self time" `Quick test_collapse_paths;
          Alcotest.test_case "to_collapsed reflects recorded spans" `Quick
            test_to_collapsed_matches_spans ] );
      ( "disabled",
        [ Alcotest.test_case "probes are no-ops" `Quick test_disabled_noop ] );
      ( "scope",
        [ Alcotest.test_case "per-domain reset and export" `Quick test_domain_scope;
          Alcotest.test_case "pool-worker sinks follow caller resets" `Quick
            test_worker_sinks_follow_caller ] );
      ( "exporters",
        [ Alcotest.test_case "chrome trace structure" `Quick test_chrome_trace_valid;
          Alcotest.test_case "jsonl structure" `Quick test_jsonl_valid;
          Alcotest.test_case "text summary" `Quick test_summary_renders;
          Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
          Alcotest.test_case "prometheus build info and drop alias" `Quick
            test_prometheus_build_info;
          Alcotest.test_case "dropped events are warned about" `Quick
            test_dropped_events_warned ] ) ]
