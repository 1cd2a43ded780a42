(* Offline trace analysis: round-trip the committed golden fixture (a
   hand-written two-slot run with known durations) through every [msoc
   trace] analysis, check the collapsed-stack folding and format, and
   convert a live profile's JSONL into Chrome trace_event JSON. *)

module Obs = Msoc_obs.Obs
module Trace = Msoc_obs.Trace
module Pool = Msoc_util.Pool

let fixture = Filename.concat "golden" "trace_fixture.jsonl"

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

let load_fixture () =
  match Trace.load fixture with
  | Ok t -> t
  | Error msg -> Alcotest.failf "fixture load failed: %s" msg

(* ---- loading ---- *)

(* (slot, chunks, steals) of each row of the per-slot fold *)
let slot_rows t =
  List.map (fun s -> (s.Trace.slot, s.Trace.chunks, s.Trace.steals)) t.Trace.slots

let test_load_fixture () =
  (* the fixture was saved with worker-timeline marks, a record type no
     longer read: those lines are skipped and the rest loads *)
  let t = load_fixture () in
  Alcotest.(check int) "timeline lines in the file" 9
    (List.length
       (List.filter
          (fun line -> contains_sub line {|"type":"timeline"|})
          (In_channel.with_open_bin fixture In_channel.input_lines)));
  Alcotest.(check int) "spans" 5 (List.length t.Trace.spans);
  Alcotest.(check int) "counters" 2 (List.length t.Trace.counters);
  let chunk_slots =
    List.filter_map
      (fun sp -> if String.equal sp.Trace.sp_name "pool.chunk" then sp.Trace.sp_slot else None)
      t.Trace.spans
  in
  Alcotest.(check (list int)) "slot args parsed" [ 0; 0; 1 ] chunk_slots;
  Alcotest.(check (list (triple int int int))) "chunks and steals per slot, from the chunk args"
    [ (0, 2, 0); (1, 1, 1) ] (slot_rows t)

let test_load_errors () =
  (match Trace.load "golden/definitely_missing.jsonl" with
  | Ok _ -> Alcotest.fail "expected load error for a missing file"
  | Error _ -> ());
  let bad = Filename.temp_file "msoc_trace" ".jsonl" in
  let oc = open_out bad in
  output_string oc "{\"type\":\"span\",\"track\":0}\nnot json at all\n";
  close_out oc;
  (match Trace.load bad with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error msg ->
    Alcotest.(check bool) "error names the offending line" true (contains_sub msg "line"));
  Sys.remove bad;
  (match Trace.parse "  \n" with
  | Ok _ -> Alcotest.fail "a blank trace must be an error"
  | Error msg -> check_contains msg [ "empty" ]);
  (* a Chrome trace is not read: the error names the format expected *)
  match Trace.parse {|{"traceEvents":[{"name":"a","ph":"X","ts":0,"dur":1,"pid":1,"tid":0}]}|} with
  | Ok _ -> Alcotest.fail "a Chrome trace must be rejected"
  | Error msg -> check_contains msg [ "line 1"; "JSONL" ]

let good_span name path ts =
  Printf.sprintf
    {|{"type":"span","track":0,"name":"%s","path":"%s","ts_ns":%d,"dur_ns":100,"args":{}}|}
    name path ts

let test_load_truncated_tail () =
  (* an export cut off mid-line (crashed writer, partial copy) still
     yields every record before the cut *)
  let file = Filename.temp_file "msoc_trace" ".jsonl" in
  let oc = open_out file in
  output_string oc (good_span "a" "a" 0 ^ "\n" ^ good_span "b" "a/b" 10 ^ "\n");
  output_string oc {|{"type":"span","track":0,"na|};
  close_out oc;
  (match Trace.load file with
  | Error msg -> Alcotest.failf "truncated file should salvage: %s" msg
  | Ok t -> Alcotest.(check int) "records before the cut kept" 2 (List.length t.Trace.spans));
  Sys.remove file

let test_load_garbage_mid_file () =
  (* concatenated exports interleave garbage between valid lines: the bad
     lines are skipped with a warning, the good ones load *)
  let file = Filename.temp_file "msoc_trace" ".jsonl" in
  let oc = open_out file in
  output_string oc
    (good_span "a" "a" 0 ^ "\n" ^ "%%% not json at all %%%\n" ^ good_span "b" "a/b" 10
   ^ "\n" ^ {|{"type":"span","track":"zero"}|} ^ "\n" ^ good_span "c" "a/c" 20 ^ "\n");
  close_out oc;
  (match Trace.load file with
  | Error msg -> Alcotest.failf "mid-file garbage should be skipped: %s" msg
  | Ok t ->
    Alcotest.(check int) "good lines survive" 3 (List.length t.Trace.spans);
    Alcotest.(check (list string)) "in order"
      [ "a"; "b"; "c" ]
      (List.map (fun sp -> sp.Trace.sp_name) t.Trace.spans));
  Sys.remove file

(* ---- summary ---- *)

let test_summary () =
  let text = Trace.summary (load_fixture ()) in
  check_contains text
    [ "5 span event(s) on 2 track(s), wall 10.000 ms";
      "Phases (top-level spans)";
      "Counters";
      "Domain tracks (pool balance)" ];
  (* a table row's cells, found by its first cells *)
  let row first =
    String.split_on_char '\n' text
    |> List.map (fun l -> List.filter (( <> ) "") (String.split_on_char ' ' l))
    |> List.find_opt (fun cells -> List.filteri (fun i _ -> i < List.length first) cells = first)
  in
  let check_row first cells =
    Alcotest.(check (option (list string))) (String.concat " " first) (Some (first @ cells))
      (row first)
  in
  check_row [ "msoc" ] [ "1"; "10.000"; "100.0%" ];
  (* pool.chunk: spans of 3, 3 and 2 ms — total 8 ms, mean 2666.7 us,
     exact p95 and max 3000.0 us *)
  check_row [ "pool.chunk" ] [ "3"; "8.000"; "2666.7"; "3000.0"; "3000.0" ];
  check_row [ "fault_sim.faults" ] [ "100" ];
  check_row [ "pool.steals" ] [ "1" ];
  (* domain 0 recorded 4 spans, 2 of them chunks busy 6 ms; domain 1 one
     chunk busy 2 ms; the fixture has no track records, so none dropped *)
  check_row [ "domain"; "0" ] [ "4"; "2"; "6.000"; "0" ];
  check_row [ "domain"; "1" ] [ "1"; "1"; "2.000"; "0" ]

(* ---- utilization ---- *)

let test_utilization () =
  let text = Trace.utilization (load_fixture ()) in
  (* the pooled window is [1 ms, 8 ms): slot 0 is busy 6/7, slot 1 is
     busy 2/7, and slot 1 recorded the single steal *)
  check_contains text
    [ "2 slot(s), wall 7.000 ms"; "85.7%"; "28.6%"; "Gantt"; "slot 0"; "slot 1" ]

let test_utilization_steals () =
  let text = Trace.utilization (load_fixture ()) in
  (* per-slot rows: "1  1  2.000  28.6%  1  5.000" — slot 1 stole once *)
  let slot1_row =
    List.find_opt
      (fun l -> String.length l > 0 && l.[0] = '1' && contains_sub l "28.6%")
      (String.split_on_char '\n' text)
  in
  match slot1_row with
  | None -> Alcotest.fail "slot 1 occupancy row missing"
  | Some row -> check_contains row [ "2.000"; "28.6%"; "1"; "5.000" ]

(* A slot whose share was all stolen ran no chunk, but the pool's size
   names it: it keeps its row, busy 0 over the whole window. *)
let test_utilization_idle_slot () =
  let chunk ~track ~slot ?victim ts =
    Printf.sprintf
      {|{"type":"span","track":%d,"name":"pool.chunk","path":"pool.chunk","ts_ns":%d,"dur_ns":1000000,"args":{"slot":"%d","size":"3"%s}}|}
      track ts slot
      (match victim with Some v -> Printf.sprintf {|,"victim":"%d"|} v | None -> "")
  in
  let t =
    match
      Trace.parse
        (String.concat "\n"
           [ chunk ~track:0 ~slot:0 0;
             chunk ~track:1 ~slot:1 ~victim:2 0;
             chunk ~track:1 ~slot:1 ~victim:2 1_000_000 ])
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "trace does not parse: %s" e
  in
  Alcotest.(check (list (triple int int int))) "every slot of the pool"
    [ (0, 1, 0); (1, 2, 2); (2, 0, 0) ] (slot_rows t);
  let text = Trace.utilization t in
  check_contains text [ "3 slot(s), wall 2.000 ms"; "slot 2 " ];
  let row =
    String.split_on_char '\n' text
    |> List.map (fun l -> List.filter (( <> ) "") (String.split_on_char ' ' l))
    |> List.find_opt (fun cells -> match cells with "2" :: _ -> true | _ -> false)
  in
  Alcotest.(check (option (list string))) "the idle slot's row"
    (Some [ "2"; "0"; "0.000"; "0.0%"; "0"; "2.000" ])
    row

(* ---- critical path ---- *)

let test_critical_path () =
  let text = Trace.critical_path (load_fixture ()) in
  (* msoc (10 ms) -> fault_sim.run (8 ms, 80% of parent) -> pool.chunk
     (8 ms, 100% of parent, 80% of root) *)
  check_contains text [ "msoc"; "fault_sim.run"; "pool.chunk"; "80.0%"; "100.0%" ]

(* ---- flamegraph conversion ---- *)

(* Self time is a path's total minus its direct children's, summed over
   repeated paths and clamped at zero. *)
let test_folded_self_time () =
  let span path dur =
    { Trace.sp_track = 0; sp_slot = None; sp_name = path; sp_path = path; sp_ts_ns = 0.0;
      sp_dur_ns = dur }
  in
  let folded spans =
    Trace.to_folded { Trace.spans; slots = []; counters = []; hists = []; dropped = [] }
  in
  (* self(a) = 10 - (4+2) - 3 = 1 ms; leaves keep their totals *)
  Alcotest.(check string) "self-time folding" "a 1000\na;b 6000\na;c 3000\nd 1000\n"
    (folded
       [ span "a" 10_000_000.0; span "a/b" 4_000_000.0; span "a/b" 2_000_000.0;
         span "a/c" 3_000_000.0; span "d" 1_000_000.0 ]);
  (* concurrent children can exceed the parent wall time: clamp at zero *)
  Alcotest.(check string) "negative self clamps to zero" "p 0\np;q 5000\n"
    (folded [ span "p" 1_000_000.0; span "p/q" 5_000_000.0 ]);
  Alcotest.(check string) "empty profile folds to nothing" "" (folded [])

let test_folded_exact () =
  let folded = Trace.to_folded (load_fixture ()) in
  (* self times: msoc 10-8 = 2 ms, fault_sim.run 8-8 = 0, chunks 8 ms *)
  Alcotest.(check string) "collapsed stacks"
    "msoc 2000\nmsoc;fault_sim.run 0\nmsoc;fault_sim.run;pool.chunk 8000\n" folded

let folded_line_valid line =
  match String.rindex_opt line ' ' with
  | None -> false
  | Some i ->
    let stack = String.sub line 0 i in
    let weight = String.sub line (i + 1) (String.length line - i - 1) in
    String.length stack > 0
    && (not (String.contains stack ' '))
    && (match int_of_string_opt weight with Some w -> w >= 0 | None -> false)

let test_folded_format_from_live_profile () =
  Obs.enable ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      Obs.span "root" (fun () ->
          Obs.span "child" (fun () -> ignore (Sys.opaque_identity 42));
          Obs.span "child" (fun () -> ()));
      Pool.with_pool ~size:2 (fun pool ->
          Pool.parallel_iter_grained pool ~n:64 ~grain:8
            ~f:(fun ~slot:_ ~lo:_ ~hi:_ -> ())
            ());
      let folded =
        match Trace.parse (Obs.jsonl ()) with
        | Ok t -> Trace.to_folded t
        | Error e -> Alcotest.failf "export does not parse: %s" e
      in
      let lines =
        String.split_on_char '\n' folded |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check bool) "some stacks" true (List.length lines > 0);
      List.iter
        (fun line ->
          Alcotest.(check bool)
            (Printf.sprintf "well-formed folded line %S" line)
            true (folded_line_valid line))
        lines;
      (* nesting shows as ';'-joined stacks *)
      check_contains folded [ "root "; "root;child " ])

(* ---- chrome conversion ---- *)

(* A live profile's JSONL converts into one complete event per span,
   keeping the span's path and own args and its timestamps to the
   nanosecond — six significant digits would round a ts past 0.1 s to
   10 us, longer than a spectral-judge span. *)
let test_chrome_round_trip () =
  Obs.enable ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      Obs.span "alpha" ~args:[ ("accuracy", "0.25") ] (fun () -> Obs.span "beta" (fun () -> ()));
      let t0 = Int64.add (Obs.now_ns ()) 123_456_789L in
      Obs.record_span "late" ~start_ns:t0 ~stop_ns:(Int64.add t0 25_123L);
      Obs.disable ();
      let jsonl = Obs.jsonl () in
      let t = match Trace.parse jsonl with Ok t -> t | Error e -> Alcotest.failf "%s" e in
      let events =
        match Trace.to_chrome jsonl with
        | Error e -> Alcotest.failf "chrome conversion failed: %s" e
        | Ok text -> Msoc_obs.Json.list_exn "traceEvents" (Msoc_obs.Json.parse text)
      in
      let complete =
        List.filter (fun e -> Msoc_obs.Json.string_exn "ph" e = "X") events
      in
      Alcotest.(check int) "every span survives" 3 (List.length complete);
      List.iter2
        (fun sp e ->
          let num key = Msoc_obs.Json.number_exn key e in
          let args = Option.get (Msoc_obs.Json.member "args" e) in
          Alcotest.(check string) "name" sp.Trace.sp_name (Msoc_obs.Json.string_exn "name" e);
          Alcotest.(check string) "path arg" sp.Trace.sp_path
            (Msoc_obs.Json.string_exn "path" args);
          Alcotest.(check (float 0.0)) "ts exact to the ns" sp.Trace.sp_ts_ns
            (Float.round (num "ts" *. 1e3));
          Alcotest.(check (float 0.0)) "dur exact to the ns" sp.Trace.sp_dur_ns
            (Float.round (num "dur" *. 1e3)))
        t.Trace.spans complete;
      let alpha = List.find (fun e -> Msoc_obs.Json.string_exn "name" e = "alpha") complete in
      Alcotest.(check string) "a span's own args are kept" "0.25"
        (Msoc_obs.Json.string_exn "accuracy" (Option.get (Msoc_obs.Json.member "args" alpha)));
      let late = List.find (fun e -> Msoc_obs.Json.string_exn "name" e = "late") complete in
      Alcotest.(check (float 0.0)) "a 25.123 us span" 25.123 (Msoc_obs.Json.number_exn "dur" late);
      Alcotest.(check bool) "past 0.1 s" true (Msoc_obs.Json.number_exn "ts" late > 1e5))

let () =
  Alcotest.run "msoc_trace"
    [ ( "load",
        [ Alcotest.test_case "golden fixture" `Quick test_load_fixture;
          Alcotest.test_case "errors are reported" `Quick test_load_errors;
          Alcotest.test_case "truncated tail salvaged" `Quick test_load_truncated_tail;
          Alcotest.test_case "mid-file garbage skipped" `Quick test_load_garbage_mid_file ] );
      ( "analyses",
        [ Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "utilization occupancy" `Quick test_utilization;
          Alcotest.test_case "utilization steals row" `Quick test_utilization_steals;
          Alcotest.test_case "utilization lists an idle slot" `Quick test_utilization_idle_slot;
          Alcotest.test_case "critical path" `Quick test_critical_path ] );
      ( "flamegraph",
        [ Alcotest.test_case "to_folded folds self time" `Quick test_folded_self_time;
          Alcotest.test_case "fixture folds exactly" `Quick test_folded_exact;
          Alcotest.test_case "live profile folds to valid lines" `Quick
            test_folded_format_from_live_profile ] );
      ( "chrome",
        [ Alcotest.test_case "round trip" `Quick test_chrome_round_trip ] ) ]
