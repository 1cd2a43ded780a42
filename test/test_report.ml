(* Observatory tests: the bench-report JSON schema round trip, the
   bench-diff verdict engine on synthetic fixture pairs, and the synthesis
   audit trail (record completeness on every topology and strategy, and
   per core of every SOC). *)

module Report = Msoc_obs.Report
module Json = Msoc_obs.Json
module Bench_diff = Msoc_stat.Bench_diff
module Topology = Msoc_analog.Topology
module Soc = Msoc_soc.Soc
module Schedule = Msoc_soc.Schedule
open Msoc_synth

(* ---- report schema round trip ---- *)

(* Parse a report document the way the CLI reads one: from a file. *)
let of_json text =
  let file = Filename.temp_file "msoc_report" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc -> output_string oc text);
      Report.read file)

(* The document [Report.write] puts in a file, as the bench writes one. *)
let to_json r =
  let file = Filename.temp_file "msoc_report" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Report.write file r;
      In_channel.with_open_bin file In_channel.input_all)

let reference_report () =
  let b = Report.create ~git_rev:"deadbee" ~pool_size:4 ~mode:"full" () in
  Report.add_timing b ~section:"kernels" ~name:"fft-4096" ~mean_ns:123.456789012345678
    ~stddev_ns:0.125 ~samples:321 ~minor_words:512.0 ~major_words:16.5 ();
  Report.add_timing b ~section:"kernels" ~name:"fault-sim" ~mean_ns:1e9 ~stddev_ns:2.5e7
    ~samples:12 ();
  (* names that exercise the string escaper *)
  Report.add_scalar b ~section:"kernels" ~name:"speed \"quoted\"\tand\nsplit"
    ~unit_label:"x" 1.5;
  Report.add_scalar b ~section:"overhead" ~name:"plain" 2.0;
  (* bounded scalars (schema v4), one of each direction *)
  Report.add_scalar b ~section:"overhead" ~name:"ratio" ~unit_label:"ratio"
    ~bound:(Report.Le 1.0) 0.98;
  Report.add_scalar b ~section:"overhead" ~name:"floor" ~unit_label:"dB"
    ~bound:(Report.Ge 60.0) 72.5;
  Report.finalize b

let test_roundtrip () =
  let r = reference_report () in
  Alcotest.(check int) "current schema is v5" 5 r.Report.meta.Report.version;
  let file = Filename.temp_file "msoc_report" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Report.write file r;
      match Report.read file with
      | Error e -> Alcotest.failf "read (write r) failed: %s" e
      | Ok r' -> Alcotest.(check bool) "equality through a file" true (r = r'))

let test_roundtrip_preserves_order () =
  let r = reference_report () in
  match of_json (to_json r) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok r' ->
    Alcotest.(check (list string))
      "section order preserved"
      (List.map (fun s -> s.Report.sec_name) r.Report.sections)
      (List.map (fun s -> s.Report.sec_name) r'.Report.sections)

let minimal_meta =
  {|"meta":{"git_rev":"x","ocaml_version":"5.1.1","pool_size":1,"mode":"quick"}|}

let test_rejects_invalid () =
  let expect_error label json =
    match of_json json with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected rejection" label
  in
  expect_error "not JSON at all" "][ nope";
  expect_error "wrong shape" {|[1, 2, 3]|};
  expect_error "missing meta" {|{"schema_version":1,"sections":[]}|};
  expect_error "wrong schema version"
    (Printf.sprintf {|{"schema_version":99,%s,"sections":[]}|} minimal_meta);
  expect_error "sections not a list"
    (Printf.sprintf {|{"schema_version":1,%s,"sections":7}|} minimal_meta);
  expect_error "timing missing a field"
    (Printf.sprintf
       {|{"schema_version":1,%s,"sections":[{"name":"k","timings":[{"name":"t","mean_ns":1}],"scalars":[],"comparisons":[]}]}|}
       minimal_meta);
  (* the minimal valid document parses *)
  match
    of_json
      (Printf.sprintf {|{"schema_version":1,%s,"sections":[]}|} minimal_meta)
  with
  | Ok r -> Alcotest.(check int) "schema version" 1 r.Report.meta.Report.version
  | Error e -> Alcotest.failf "minimal document rejected: %s" e

let test_json_parser_escapes () =
  (* the embedded parser understands escapes the emitter never produces *)
  match Json.parse {|{"a": "A\n", "b": [1.5e3, true, null]}|} with
  | Json.Object [ ("a", Json.String a); ("b", Json.Array [ n; t; nl ]) ] ->
    Alcotest.(check string) "unicode + newline escape" "A\n" a;
    Alcotest.(check bool) "number" true (n = Json.Number 1500.0);
    Alcotest.(check bool) "true" true (t = Json.Bool true);
    Alcotest.(check bool) "null" true (nl = Json.Null)
  | _ -> Alcotest.fail "unexpected parse shape"

let test_v1_document_parses () =
  (* a schema-v1 report (no GC fields on timings) stays accepted: the
     fields default to 0.0 and the file's own version is preserved so old
     committed baselines keep feeding bench-diff *)
  let v1 =
    Printf.sprintf
      {|{"schema_version":1,%s,"sections":[{"name":"kernels","timings":[{"name":"fft","mean_ns":10.5,"stddev_ns":1.25,"samples":9}],"scalars":[],"comparisons":[]}]}|}
      minimal_meta
  in
  match of_json v1 with
  | Error e -> Alcotest.failf "v1 report rejected: %s" e
  | Ok r ->
    Alcotest.(check int) "file version preserved" 1 r.Report.meta.Report.version;
    (match r.Report.sections with
    | [ { Report.timings = [ t ]; _ } ] ->
      Alcotest.(check (float 0.0)) "mean kept" 10.5 t.Report.mean_ns;
      Alcotest.(check (float 0.0)) "minor_words defaults" 0.0 t.Report.minor_words;
      Alcotest.(check (float 0.0)) "major_words defaults" 0.0 t.Report.major_words;
      Alcotest.(check (float 0.0)) "major_collections defaults" 0.0
        t.Report.major_collections
    | _ -> Alcotest.fail "expected one section with one timing")

let test_v2_document_parses () =
  (* a schema-v2 report (GC fields present) stays accepted and the file's
     version is kept *)
  let v2 =
    Printf.sprintf
      {|{"schema_version":2,%s,"sections":[{"name":"kernels","timings":[{"name":"fft","mean_ns":10.5,"stddev_ns":1.25,"samples":9,"minor_words":64,"major_words":2,"major_collections":0.5}],"scalars":[],"comparisons":[]}]}|}
      minimal_meta
  in
  match of_json v2 with
  | Error e -> Alcotest.failf "v2 report rejected: %s" e
  | Ok r ->
    Alcotest.(check int) "file version preserved" 2 r.Report.meta.Report.version;
    (match r.Report.sections with
    | [ { Report.timings = [ t ]; _ } ] ->
      Alcotest.(check (float 0.0)) "minor_words kept" 64.0 t.Report.minor_words
    | _ -> Alcotest.fail "expected one section with one timing")

let test_v3_document_parses () =
  (* a schema-v3 report (scalars without bounds) stays accepted: the bound
     defaults to None and the file's version is kept *)
  let v3 =
    Printf.sprintf
      {|{"schema_version":3,%s,"sections":[{"name":"kernels","timings":[],"scalars":[{"name":"speedup","value":3.5,"unit":"x"}],"comparisons":[]}]}|}
      minimal_meta
  in
  match of_json v3 with
  | Error e -> Alcotest.failf "v3 report rejected: %s" e
  | Ok r ->
    Alcotest.(check int) "file version preserved" 3 r.Report.meta.Report.version;
    (match r.Report.sections with
    | [ { Report.scalars = [ s ]; _ } ] ->
      Alcotest.(check (float 0.0)) "value kept" 3.5 s.Report.value;
      Alcotest.(check bool) "bound defaults to None" true (s.Report.bound = None)
    | _ -> Alcotest.fail "expected one section with one scalar")

let contains text needle =
  let nl = String.length needle and tl = String.length text in
  let rec scan i = i + nl <= tl && (String.equal (String.sub text i nl) needle || scan (i + 1)) in
  scan 0

let test_v4_document_parses () =
  (* a schema-v4 report (the committed baseline's) still carries
     paper-vs-measured comparisons and latency percentiles: they are
     ignored, the rows beside them are kept, and writing the report back
     drops them *)
  let v4 =
    Printf.sprintf
      {|{"schema_version":4,%s,"sections":[{"name":"soc","timings":[{"name":"fft","mean_ns":10.5,"stddev_ns":1.25,"samples":9,"minor_words":64,"major_words":2,"major_collections":0.5,"p50_ns":10,"p99_ns":12}],"scalars":[{"name":"ratio","value":0.5,"unit":"ratio","bound_le":1}],"comparisons":[{"name":"coverage","paper":"89.6%%","measured":"80.9%%"}]}]}|}
      minimal_meta
  in
  match of_json v4 with
  | Error e -> Alcotest.failf "v4 report rejected: %s" e
  | Ok r ->
    Alcotest.(check int) "file version preserved" 4 r.Report.meta.Report.version;
    (match r.Report.sections with
    | [ { Report.scalars = [ s ]; timings = [ t ]; _ } ] ->
      Alcotest.(check bool) "bounded scalar kept" true
        (s.Report.value = 0.5 && s.Report.bound = Some (Report.Le 1.0));
      Alcotest.(check (float 0.0)) "timing kept" 10.5 t.Report.mean_ns
    | _ -> Alcotest.fail "expected one section with one timing and one scalar");
    let json = to_json r in
    Alcotest.(check bool) "comparisons not written" false (contains json {|"comparisons"|});
    Alcotest.(check bool) "percentiles not written" false (contains json {|"p50_ns"|})

let test_v4_bounds_roundtrip () =
  let r = reference_report () in
  let json = to_json r in
  Alcotest.(check bool) "bound_le emitted" true (contains json {|"bound_le"|});
  Alcotest.(check bool) "bound_ge emitted" true (contains json {|"bound_ge"|});
  match of_json json with
  | Error e -> Alcotest.failf "v4 round trip failed: %s" e
  | Ok r' ->
    let scalar name =
      match Report.section r' "overhead" with
      | None -> Alcotest.fail "overhead section missing"
      | Some s ->
        (match
           List.find_opt (fun v -> String.equal v.Report.s_name name) s.Report.scalars
         with
        | Some v -> v
        | None -> Alcotest.failf "scalar %s missing" name)
    in
    Alcotest.(check bool) "Le bound preserved" true
      ((scalar "ratio").Report.bound = Some (Report.Le 1.0));
    Alcotest.(check bool) "Ge bound preserved" true
      ((scalar "floor").Report.bound = Some (Report.Ge 60.0));
    Alcotest.(check bool) "unbounded scalar stays unbounded" true
      ((scalar "plain").Report.bound = None)

(* ---- bench-diff verdicts ---- *)

let report_of sections =
  let b = Report.create ~git_rev:"r" ~pool_size:1 ~mode:"quick" () in
  List.iter
    (fun (sec, rows) ->
      List.iter
        (fun (name, mean, stddev, n) ->
          Report.add_timing b ~section:sec ~name ~mean_ns:mean ~stddev_ns:stddev ~samples:n ())
        rows)
    sections;
  Report.finalize b

let find_row d sec name =
  match
    List.find_opt
      (fun r -> String.equal r.Bench_diff.section sec && String.equal r.Bench_diff.metric name)
      d.Bench_diff.rows
  with
  | Some r -> r
  | None -> Alcotest.failf "diff row %s/%s missing" sec name

let check_verdict d sec name expected =
  let r = find_row d sec name in
  Alcotest.(check bool) (Printf.sprintf "verdict of %s/%s" sec name) true
    (r.Bench_diff.verdict = expected)

let test_verdicts () =
  let old_report =
    report_of
      [ ( "kernels",
          [ ("fast", 1000.0, 10.0, 100);    (* gets 20% faster *)
            ("slow", 1000.0, 10.0, 100);    (* gets 50% slower *)
            ("noisy", 1000.0, 400.0, 4);    (* +10% but the CI swamps it *)
            ("gone", 500.0, 5.0, 50) ] ) ]  (* dropped from the new report *)
  in
  let new_report =
    report_of
      [ ( "kernels",
          [ ("fast", 800.0, 10.0, 100);
            ("slow", 1500.0, 10.0, 100);
            ("noisy", 1100.0, 400.0, 4);
            ("fresh", 50.0, 1.0, 10) ] ) ]
  in
  let d = Bench_diff.diff ~tolerance_pct:5.0 ~old_report ~new_report () in
  check_verdict d "kernels" "fast" Bench_diff.Improved;
  check_verdict d "kernels" "slow" Bench_diff.Regressed;
  check_verdict d "kernels" "noisy" Bench_diff.Unchanged;
  check_verdict d "kernels" "gone" Bench_diff.Missing_new;
  check_verdict d "kernels" "fresh" Bench_diff.Missing_old;
  Alcotest.(check int) "regressed count" 1 d.Bench_diff.regressed;
  Alcotest.(check int) "missing count" 1 d.Bench_diff.missing;
  Alcotest.(check int) "improved count" 1 d.Bench_diff.improved;
  Alcotest.(check bool) "gate fails" true (Bench_diff.gate_failed d);
  let slow = find_row d "kernels" "slow" in
  Alcotest.(check (float 1e-9)) "delta_pct" 50.0 slow.Bench_diff.delta_pct;
  (* a generous tolerance absorbs the same slowdown *)
  let lax = Bench_diff.diff ~tolerance_pct:100.0 ~old_report ~new_report () in
  check_verdict lax "kernels" "slow" Bench_diff.Unchanged;
  Alcotest.(check bool) "still gated by the missing row" true (Bench_diff.gate_failed lax)

let test_improvement_only_passes () =
  let old_report = report_of [ ("kernels", [ ("k", 1000.0, 10.0, 100) ]) ] in
  let new_report = report_of [ ("kernels", [ ("k", 700.0, 10.0, 100) ]) ] in
  let d = Bench_diff.diff ~old_report ~new_report () in
  check_verdict d "kernels" "k" Bench_diff.Improved;
  Alcotest.(check bool) "improvements do not gate" false (Bench_diff.gate_failed d)

let test_missing_section_gates () =
  let rows = [ ("k", 1000.0, 10.0, 100) ] in
  let both = report_of [ ("kernels", rows); ("extra", rows) ] in
  let only_kernels = report_of [ ("kernels", rows) ] in
  let d = Bench_diff.diff ~old_report:both ~new_report:only_kernels () in
  check_verdict d "extra" "k" Bench_diff.Missing_new;
  Alcotest.(check bool) "dropped section gates" true (Bench_diff.gate_failed d);
  (* the reverse — a section that only exists in the new report — is fine *)
  let d' = Bench_diff.diff ~old_report:only_kernels ~new_report:both () in
  check_verdict d' "extra" "k" Bench_diff.Missing_old;
  Alcotest.(check bool) "new section does not gate" false (Bench_diff.gate_failed d')

let test_render_mentions_verdicts () =
  let old_report = report_of [ ("kernels", [ ("k", 1000.0, 1.0, 100) ]) ] in
  let new_report = report_of [ ("kernels", [ ("k", 2000.0, 1.0, 100) ]) ] in
  let text =
    Bench_diff.render (Bench_diff.diff ~old_report ~new_report ())
  in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec scan i =
      i + nl <= tl && (String.equal (String.sub text i nl) needle || scan (i + 1))
    in
    scan 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "render mentions %S" needle) true
        (contains needle))
    [ "Verdict"; "REGRESSED"; "1 regressed" ]

let test_noisy_rows_warned () =
  (* a timing whose 95% CI spans zero is flagged per-row and triggers the
     trailing warning, but never gates *)
  let old_report = report_of [ ("kernels", [ ("wild", 1000.0, 400.0, 3) ]) ] in
  let new_report = report_of [ ("kernels", [ ("wild", 1050.0, 400.0, 3) ]) ] in
  let d = Bench_diff.diff ~old_report ~new_report () in
  Alcotest.(check bool) "row flagged" true (find_row d "kernels" "wild").Bench_diff.noisy;
  Alcotest.(check bool) "noise does not gate" false (Bench_diff.gate_failed d);
  let text = Bench_diff.render d in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec scan i =
      i + nl <= tl && (String.equal (String.sub text i nl) needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "verdict suffixed" true (contains "(noisy)");
  Alcotest.(check bool) "warning counts the row" true
    (contains "warning: 1 timing row(s) have a 95% CI spanning zero");
  (* a clean pair renders no warning *)
  let quiet =
    Bench_diff.render
      (Bench_diff.diff
         ~old_report:(report_of [ ("kernels", [ ("k", 1000.0, 1.0, 100) ]) ])
         ~new_report:(report_of [ ("kernels", [ ("k", 1001.0, 1.0, 100) ]) ])
         ())
  in
  Alcotest.(check bool) "no spurious warning" false
    (let nl = String.length "warning:" and tl = String.length quiet in
     let rec scan i =
       i + nl <= tl && (String.equal (String.sub quiet i nl) "warning:" || scan (i + 1))
     in
     scan 0)

let test_low_sample_rows_tagged () =
  (* a timing with fewer than min_samples iterations on either side is
     tagged "(low samples)" and warned about, but never gates *)
  let old_report = report_of [ ("kernels", [ ("tiny", 1000.0, 1.0, 4) ]) ] in
  let new_report = report_of [ ("kernels", [ ("tiny", 1001.0, 1.0, 100) ]) ] in
  let d = Bench_diff.diff ~old_report ~new_report () in
  Alcotest.(check bool) "row flagged" true
    (find_row d "kernels" "tiny").Bench_diff.low_samples;
  Alcotest.(check bool) "low samples do not gate" false (Bench_diff.gate_failed d);
  let text = Bench_diff.render d in
  let contains hay needle =
    let nl = String.length needle and tl = String.length hay in
    let rec scan i =
      i + nl <= tl && (String.equal (String.sub hay i nl) needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "verdict suffixed" true (contains text "(low samples)");
  Alcotest.(check bool) "warning counts the row and names the threshold" true
    (contains text
       (Printf.sprintf "warning: 1 timing row(s) have fewer than %d samples" Bench_diff.min_samples));
  (* both sides at or above the threshold: no tag *)
  let ok =
    Bench_diff.diff
      ~old_report:(report_of [ ("kernels", [ ("k", 1000.0, 1.0, 8) ]) ])
      ~new_report:(report_of [ ("kernels", [ ("k", 1001.0, 1.0, 8) ]) ])
      ()
  in
  Alcotest.(check bool) "threshold is strict" false
    (find_row ok "kernels" "k").Bench_diff.low_samples;
  Alcotest.(check bool) "clean render untagged" false
    (contains (Bench_diff.render ok) "(low samples)")

let scalar_report rows =
  let b = Report.create ~git_rev:"r" ~pool_size:1 ~mode:"quick" () in
  List.iter
    (fun (name, value, bound) ->
      Report.add_scalar b ~section:"soc-schedule" ~name ?bound value)
    rows;
  Report.finalize b

let test_scalar_bound_gates () =
  (* a paired scalar violating its self-declared bound regresses and gates *)
  let old_report = scalar_report [ ("ratio", 0.98, Some (Report.Le 1.0)) ] in
  let bad = scalar_report [ ("ratio", 1.02, Some (Report.Le 1.0)) ] in
  let d = Bench_diff.diff ~old_report ~new_report:bad () in
  check_verdict d "soc-schedule" "ratio" Bench_diff.Regressed;
  Alcotest.(check bool) "violated Le bound gates" true (Bench_diff.gate_failed d);
  (* a satisfied bound stays informational *)
  let good = scalar_report [ ("ratio", 0.95, Some (Report.Le 1.0)) ] in
  let d' = Bench_diff.diff ~old_report ~new_report:good () in
  check_verdict d' "soc-schedule" "ratio" Bench_diff.Info;
  Alcotest.(check bool) "satisfied bound passes" false (Bench_diff.gate_failed d');
  (* Ge bounds gate in the other direction *)
  let d'' =
    Bench_diff.diff
      ~old_report:(scalar_report [ ("floor", 72.0, Some (Report.Ge 60.0)) ])
      ~new_report:(scalar_report [ ("floor", 55.0, Some (Report.Ge 60.0)) ])
      ()
  in
  check_verdict d'' "soc-schedule" "floor" Bench_diff.Regressed;
  Alcotest.(check bool) "violated Ge bound gates" true (Bench_diff.gate_failed d'')

let test_new_bounded_scalar_gates () =
  (* a brand-new bounded scalar — whole section absent from the baseline —
     cannot dodge its own bound; without a bound it stays informational *)
  let empty = report_of [] in
  let violating = scalar_report [ ("ratio", 1.5, Some (Report.Le 1.0)) ] in
  let d = Bench_diff.diff ~old_report:empty ~new_report:violating () in
  check_verdict d "soc-schedule" "ratio" Bench_diff.Regressed;
  Alcotest.(check bool) "new violating scalar gates" true (Bench_diff.gate_failed d);
  let within = scalar_report [ ("ratio", 0.99, Some (Report.Le 1.0)) ] in
  let d' = Bench_diff.diff ~old_report:empty ~new_report:within () in
  check_verdict d' "soc-schedule" "ratio" Bench_diff.Missing_old;
  Alcotest.(check bool) "new satisfied scalar passes" false (Bench_diff.gate_failed d');
  let unbounded = scalar_report [ ("ratio", 42.0, None) ] in
  let d'' = Bench_diff.diff ~old_report:empty ~new_report:unbounded () in
  check_verdict d'' "soc-schedule" "ratio" Bench_diff.Missing_old;
  Alcotest.(check bool) "new unbounded scalar passes" false (Bench_diff.gate_failed d'')

(* ---- synthesis audit trail ---- *)

(* Invariants every record holds: a positive derived cost; composites carry
   their tolerance and no de-embedding chain; propagated records carry
   their predicted losses. *)
let check_record what (r : Audit.t) =
  let what = what ^ " " ^ r.Audit.parameter in
  Alcotest.(check bool) (what ^ ": positive ATE cycles") true
    (Cost.ate_cycles r.Audit.cost > 0);
  Alcotest.(check bool) (what ^ ": stimulus recorded") true
    (String.length r.Audit.stimulus > 0);
  match r.Audit.origin with
  | "composed" ->
    Alcotest.(check string) (what ^ ": composite strategy") "composite" r.Audit.strategy;
    Alcotest.(check bool) (what ^ ": composite records its tolerance") true
      (r.Audit.required_tol <> None);
    Alcotest.(check int) (what ^ ": composites have no budget contributions") 0
      (List.length r.Audit.contributions);
    Alcotest.(check bool) (what ^ ": composites predict no losses") true
      (r.Audit.fcl = None && r.Audit.yl = None)
  | "propagated" ->
    Alcotest.(check bool) (what ^ ": predicted FCL/YL present") true
      (r.Audit.fcl <> None && r.Audit.yl <> None)
  | origin -> Alcotest.failf "%s: unknown origin %S" what origin

let test_audit_completeness () =
  let expected = [ ("amp-bypass", 10); ("default", 11); ("sigma-delta", 10) ] in
  Alcotest.(check (list string)) "every registered topology covered" Topology.names
    (List.map fst expected);
  List.iter
    (fun (topology, count) ->
      List.iter
        (fun strategy ->
          let what = topology ^ "/" ^ Propagate.strategy_name strategy in
          let path =
            match Topology.build topology with
            | Some path -> path
            | None -> Alcotest.failf "%s: unregistered" topology
          in
          let plan = Plan.synthesize ~strategy path in
          let records = Plan.audit plan in
          (* one record per synthesized analog parameter: every composed
             and propagated entry, nothing else *)
          Alcotest.(check int) (what ^ ": one record per analog parameter") count
            (List.length records);
          Alcotest.(check int) (what ^ ": no digital-test record")
            (List.length plan.Plan.entries - 1)
            (List.length records);
          List.iter (check_record what) records;
          (* each record prices its test exactly as the schedule does *)
          let steps = Plan.schedule plan in
          List.iter
            (fun r ->
              let name = String.lowercase_ascii r.Audit.parameter in
              match List.find_opt (fun s -> String.equal s.Plan.name name) steps with
              | Some s ->
                Alcotest.(check bool) (what ^ " " ^ name ^ ": cost = scheduled cost") true
                  (r.Audit.cost = s.Plan.cost)
              | None -> Alcotest.failf "%s: no scheduled step %S" what name)
            records;
          (* propagation-strategy record: accuracy, formula and budget are
             Propagate's own, and the plan supplies the requirement *)
          let m = Propagate.mixer_iip3 path ~strategy in
          let r =
            match
              List.find_opt (fun r -> String.equal r.Audit.parameter "Mixer IIP3") records
            with
            | Some r -> r
            | None -> Alcotest.failf "%s: no audit record for Mixer IIP3" what
          in
          Alcotest.(check string) (what ^ ": propagated origin") "propagated" r.Audit.origin;
          Alcotest.(check string) (what ^ ": strategy name")
            (Propagate.strategy_name strategy) r.Audit.strategy;
          Alcotest.(check (float 0.0)) (what ^ ": achieved accuracy is Propagate's")
            (Propagate.err m) r.Audit.achieved_err;
          Alcotest.(check string) (what ^ ": formula") m.Propagate.formula r.Audit.formula;
          Alcotest.(check bool) (what ^ ": budget contributions are Propagate's") true
            (r.Audit.contributions = m.Propagate.budget.Accuracy.contributions);
          Alcotest.(check bool) (what ^ ": required tolerance from the plan") true
            (r.Audit.required_tol <> None);
          (* the audit JSON parses and holds the same record count *)
          match Json.parse_result (Audit.to_json records) with
          | Error e -> Alcotest.failf "%s: audit JSON invalid: %s" what e
          | Ok j ->
            Alcotest.(check int) (what ^ ": audit JSON record count") count
              (List.length (Json.list_exn "audit" j)))
        [ Propagate.Adaptive; Propagate.Nominal_gains ])
    expected;
  (* an SOC's trail: one record per analog entry per core, i.e. every
     scheduled test but each core's digital-filter test *)
  List.iter
    (fun name ->
      let soc =
        match Soc.find name with Some soc -> soc | None -> Alcotest.failf "no SOC %S" name
      in
      let records = Schedule.audit soc in
      Alcotest.(check int) (name ^ ": 42 records") 42 (List.length records);
      let problem = Schedule.problem_of_soc soc in
      Alcotest.(check int) (name ^ ": one record per analog test")
        (Array.length problem.Schedule.tests - Soc.core_count soc)
        (List.length records);
      List.iter (check_record name) records)
    Soc.names

let () =
  Alcotest.run "msoc_report"
    [ ( "report-schema",
        [ Alcotest.test_case "JSON round trip" `Quick test_roundtrip;
          Alcotest.test_case "order preserved" `Quick test_roundtrip_preserves_order;
          Alcotest.test_case "invalid documents rejected" `Quick test_rejects_invalid;
          Alcotest.test_case "parser escape handling" `Quick test_json_parser_escapes;
          Alcotest.test_case "schema v1 still parses" `Quick test_v1_document_parses;
          Alcotest.test_case "schema v2 still parses" `Quick test_v2_document_parses;
          Alcotest.test_case "schema v3 still parses" `Quick test_v3_document_parses;
          Alcotest.test_case "schema v4 still parses" `Quick test_v4_document_parses;
          Alcotest.test_case "v4 scalar bounds round trip" `Quick
            test_v4_bounds_roundtrip ] );
      ( "bench-diff",
        [ Alcotest.test_case "verdicts on a fixture pair" `Quick test_verdicts;
          Alcotest.test_case "noisy rows warned" `Quick test_noisy_rows_warned;
          Alcotest.test_case "low-sample rows tagged" `Quick test_low_sample_rows_tagged;
          Alcotest.test_case "improvement alone passes" `Quick test_improvement_only_passes;
          Alcotest.test_case "missing section gates" `Quick test_missing_section_gates;
          Alcotest.test_case "scalar bound gates" `Quick test_scalar_bound_gates;
          Alcotest.test_case "new bounded scalar gates" `Quick
            test_new_bounded_scalar_gates;
          Alcotest.test_case "rendered table" `Quick test_render_mentions_verdicts ] );
      ( "audit-trail",
        [ Alcotest.test_case "record completeness" `Quick test_audit_completeness ] ) ]
