(* The end-to-end bench's statistics: nearest-rank percentiles and the
   sample floor that withholds them, self time and residual on a
   synthetic span tree, and the metric name and unit rules. *)

module Stats = Msoc_bench_e2e.Stats
module Trace = Msoc_obs.Trace

let floats = Alcotest.(option (float 0.0))
let upto n = Array.init n (fun i -> float_of_int (i + 1))

let test_nearest_rank () =
  let rank p = Stats.nearest_rank (upto 10) ~p in
  Alcotest.(check (float 0.0)) "p51 rounds up" 6.0 (rank 51.0);
  Alcotest.(check (float 0.0)) "p100 is the maximum" 10.0 (rank 100.0);
  Alcotest.(check (float 0.0)) "p1 is the minimum" 1.0 (rank 1.0);
  let xs = [| 7.0; 1.0; 3.0; 10.0; 5.0; 2.0; 9.0; 4.0; 8.0; 6.0 |] in
  Alcotest.check floats "median of unsorted 1..10" (Some 5.0) (Stats.median xs);
  Alcotest.check floats "single sample median" (Some 4.0) (Stats.median [| 4.0 |]);
  Alcotest.check floats "empty" None (Stats.median [||])

let test_withheld () =
  Alcotest.check floats "p90 of 100: ten beyond" (Some 90.0) (Stats.percentile ~p:90.0 (upto 100));
  Alcotest.check floats "p91 of 100: nine beyond" None (Stats.percentile ~p:91.0 (upto 100));
  Alcotest.check floats "p99 of 1000" (Some 990.0) (Stats.percentile ~p:99.0 (upto 1000));
  Alcotest.check floats "p99 of 999" None (Stats.percentile ~p:99.0 (upto 999));
  Alcotest.check floats "median of 3 is kept" (Some 2.0) (Stats.percentile ~p:50.0 (upto 3))

let span ?(track = 0) path ts dur =
  let name =
    match String.rindex_opt path '/' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> path
  in
  { Trace.sp_track = track; sp_slot = None; sp_name = name; sp_path = path; sp_ts_ns = ts;
    sp_dur_ns = dur }

let self_of self path =
  match List.find_opt (fun ((s : Trace.span), _) -> s.sp_path = path) self with
  | Some (_, t) -> t
  | None -> Alcotest.failf "no span %s" path

let tree =
  [ span "req" 0.0 100.0;
    span "req/a" 10.0 20.0;
    span "req/b" 40.0 30.0;
    span "req/b/c" 45.0 10.0;
    (* another domain's span inside the same interval is not a child *)
    span ~track:1 "pool.chunk" 0.0 100.0;
    span "req" 200.0 50.0;
    span "req/a" 210.0 20.0;
    (* an overlapping sibling only adds the part not yet covered *)
    span "req/b" 220.0 20.0 ]

let test_self_time () =
  let self = Stats.self_times tree in
  Alcotest.(check int) "one entry per span" (List.length tree) (List.length self);
  let first = List.filter (fun ((s : Trace.span), _) -> s.sp_ts_ns < 150.0) self in
  Alcotest.(check (float 1e-9)) "root" 50.0 (self_of first "req");
  Alcotest.(check (float 1e-9)) "leaf" 20.0 (self_of first "req/a");
  Alcotest.(check (float 1e-9)) "middle" 20.0 (self_of first "req/b");
  Alcotest.(check (float 1e-9)) "other track" 100.0 (self_of first "pool.chunk");
  Alcotest.(check (float 1e-9)) "sum over both roots" (50.0 +. 20.0)
    (Stats.sum_self ~name:"req" self);
  Alcotest.(check (float 1e-9)) "residual share" (70.0 /. 150.0)
    (Stats.residual_share ~root:"req" self)

let test_busy () =
  let spans = [ span "x" 0.0 10.0; span "x/x" 1.0 5.0; span "y/x" 20.0 3.0 ] in
  Alcotest.(check (float 1e-9)) "outermost only" 13.0 (Stats.busy_ns ~name:"x" spans)

let test_names () =
  List.iter
    (fun s -> Alcotest.(check bool) s true (Stats.valid_name s))
    [ "serve.transport_ms.p50"; "latency_p50_ms"; "cli-paper"; "2x"; String.make 64 'a' ];
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "%S rejected" s) false (Stats.valid_name s))
    [ ""; "-a"; ".a"; "a b"; "a/b"; "a%"; String.make 65 'a' ];
  List.iter
    (fun s -> Alcotest.(check bool) s true (Stats.valid_unit s))
    [ "ms"; "req/s"; "%"; "count"; "Mwords" ];
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "%S rejected" s) false (Stats.valid_unit s))
    [ ""; "a b"; String.make 17 's' ]

let () =
  Alcotest.run "bench_e2e"
    [ ( "stats",
        [ Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "tail percentile withheld" `Quick test_withheld;
          Alcotest.test_case "self time and residual" `Quick test_self_time;
          Alcotest.test_case "busy time of nested spans" `Quick test_busy;
          Alcotest.test_case "metric names and units" `Quick test_names ] ) ]
