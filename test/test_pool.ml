(* Determinism tests for the domain pool and everything wired onto it:
   every engine must return results bit-identical to its run on the pool
   of one (which runs inline), for every pool size. *)

module Pool = Msoc_util.Pool
module Prng = Msoc_util.Prng
module Obs = Msoc_obs.Obs
module Trace = Msoc_obs.Trace
module Json = Msoc_obs.Json
module Monte_carlo = Msoc_stat.Monte_carlo
module Spectrum = Msoc_dsp.Spectrum
module Fir_netlist = Msoc_netlist.Fir_netlist
module Fault = Msoc_netlist.Fault
module Fault_sim = Msoc_netlist.Fault_sim
module Atpg_lite = Msoc_netlist.Atpg_lite
module Digital_test = Msoc_synth.Digital_test
module Schedule = Msoc_soc.Schedule
module Soc = Msoc_soc.Soc

(* 8 oversubscribes any CI box we use — stealing and uneven grain tails
   actually happen there, and bit-identity must hold regardless. *)
let pool_sizes = [ 1; 2; 4; 8 ]

(* ---- Pool primitives ---- *)

let test_chunking () =
  (* the maximal grain ceil(n / size) — one contiguous chunk per worker,
     at most [size] chunks — covers [0, n) exactly once for awkward sizes *)
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          List.iter
            (fun n ->
              let hits = Array.make (max 1 n) 0 in
              let chunks = ref 0 in
              let lock = Mutex.create () in
              Pool.parallel_iter_grained pool ~n ~grain:(max 1 ((n + size - 1) / size))
                ~f:(fun ~slot:_ ~lo ~hi ->
                  Mutex.lock lock;
                  incr chunks;
                  for i = lo to hi - 1 do
                    hits.(i) <- hits.(i) + 1
                  done;
                  Mutex.unlock lock)
                ();
              if n > 0 then begin
                Alcotest.(check (array int))
                  (Printf.sprintf "n=%d size=%d each index once" n size)
                  (Array.make n 1) (Array.sub hits 0 n);
                Alcotest.(check bool)
                  (Printf.sprintf "n=%d size=%d at most size chunks" n size)
                  true (!chunks <= size)
              end)
            [ 0; 1; 2; 3; 7; 64; 65 ]))
    pool_sizes

let test_grained_coverage () =
  (* parallel_iter_grained covers [0, n) exactly once for every pool size
     and grain, including grain 1 (max stealing) and the default grain *)
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          List.iter
            (fun (n, grain) ->
              let hits = Array.make (max 1 n) 0 in
              let lock = Mutex.create () in
              Pool.parallel_iter_grained pool ~n ?grain
                ~f:(fun ~slot:_ ~lo ~hi ->
                  Mutex.lock lock;
                  for i = lo to hi - 1 do
                    hits.(i) <- hits.(i) + 1
                  done;
                  Mutex.unlock lock)
                ();
              if n > 0 then
                let label =
                  Printf.sprintf "n=%d grain=%s size=%d each index once" n
                    (match grain with None -> "auto" | Some g -> string_of_int g)
                    size
                in
                Alcotest.(check (array int)) label (Array.make n 1) (Array.sub hits 0 n))
            [ (0, None); (1, Some 1); (7, Some 1); (64, Some 3); (65, None); (129, Some 1) ]))
    pool_sizes

let test_grained_hooks () =
  (* the pool's hooks, as the telemetry layer installs them, record each
     chunk once: the run's own trace holds one [pool.chunk] span per
     chunk naming its slot and the pool's size, the chunk-size histogram
     sums to n, a stolen chunk names a victim other than its own slot and
     is counted once in [pool.steals], and every slot of the pool is
     listed *)
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.disable (); Obs.reset ()) (fun () ->
      Pool.with_pool ~size:4 (fun pool ->
          let n = 64 in
          let sum = Atomic.make 0 in
          Pool.parallel_iter_grained pool ~n ~grain:1
            ~f:(fun ~slot:_ ~lo ~hi ->
              for i = lo to hi - 1 do
                ignore (Atomic.fetch_and_add sum i)
              done)
            ();
          Alcotest.(check int) "all indices processed" (n * (n - 1) / 2) (Atomic.get sum);
          let trace =
            match Trace.parse (Obs.jsonl ()) with
            | Ok t -> t
            | Error e -> Alcotest.failf "the export does not parse: %s" e
          in
          let chunks =
            List.length
              (List.filter (fun s -> String.equal s.Trace.sp_name "pool.chunk") trace.Trace.spans)
          in
          let items =
            match List.find_opt (fun h -> String.equal h.Trace.hist "pool.chunk.items") trace.Trace.hists with
            | Some h -> (h.Trace.hist_count, h.Trace.sum)
            | None -> (0, 0.0)
          in
          let counter name = Option.value ~default:0.0 (List.assoc_opt name trace.Trace.counters) in
          (* each chunk span's args, as the export writes them *)
          let chunk_args =
            String.split_on_char '\n' (Obs.jsonl ())
            |> List.filter_map (fun line ->
                   if line = "" then None
                   else
                     let j = Json.parse line in
                     match (Json.string_exn "type" j, Json.member "args" j) with
                     | "span", Some (Json.Object fields)
                       when String.equal (Json.string_exn "name" j) "pool.chunk" ->
                       Some
                         (List.filter_map
                            (function k, Json.String v -> Some (k, int_of_string v) | _ -> None)
                            fields)
                     | _ -> None)
          in
          let stolen = List.filter (List.mem_assoc "victim") chunk_args in
          Alcotest.(check (pair int (float 0.0))) "one chunk-size observation per span, n items"
            (chunks, float_of_int n) items;
          Alcotest.(check bool) "at least one chunk per run" true (chunks >= 1);
          Alcotest.(check bool) "every chunk names its slot and the pool's size" true
            (List.length chunk_args = chunks
            && List.for_all
                 (fun args ->
                   List.assoc_opt "size" args = Some 4
                   && match List.assoc_opt "slot" args with Some s -> s >= 0 && s < 4 | None -> false)
                 chunk_args);
          Alcotest.(check bool) "no chunk is stolen from its own slot" true
            (List.for_all
               (fun args ->
                 let victim = List.assoc "victim" args in
                 victim <> List.assoc "slot" args && victim >= 0 && victim < 4)
               stolen);
          Alcotest.(check (float 0.0)) "stolen chunks equal pool.steals"
            (float_of_int (List.length stolen)) (counter "pool.steals");
          Alcotest.(check (list int)) "every slot of the pool listed" [ 0; 1; 2; 3 ]
            (List.map (fun s -> s.Trace.slot) trace.Trace.slots);
          Alcotest.(check int) "per-slot steals sum to the stolen chunks" (List.length stolen)
            (List.fold_left (fun acc s -> acc + s.Trace.steals) 0 trace.Trace.slots)))

let test_parallel_init () =
  let expected = Array.init 1000 (fun i -> (i * i) mod 97) in
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let got = Pool.parallel_init pool 1000 (fun i -> (i * i) mod 97) in
          Alcotest.(check (array int)) (Printf.sprintf "size %d" size) expected got))
    pool_sizes

(* The reference fan-out: stream [i] is the [i]-th serial split. *)
let split_streams rng n = Array.init n (fun _ -> Prng.split rng)

let test_parallel_floats_and_map () =
  (* task [i] of parallel_floats_rng sees the [i]-th serial split *)
  let f g i = sin (float_of_int i) +. Prng.float g in
  let expected = Array.mapi (fun i g -> f g i) (split_streams (Prng.create 21) 513) in
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let floats = Pool.parallel_floats_rng pool ~rng:(Prng.create 21) 513 f in
          Alcotest.(check (array (float 0.0))) "floats" expected floats;
          let mapped = Pool.parallel_map pool (fun x -> 2.0 *. x) expected in
          Alcotest.(check (array (float 0.0)))
            "map" (Array.map (fun x -> 2.0 *. x) expected) mapped))
    pool_sizes

exception Task_failed of int

let test_exception_propagation () =
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          match Pool.parallel_init pool 64 (fun i -> if i = 37 then raise (Task_failed i) else i) with
          | _ -> Alcotest.fail "expected Task_failed"
          | exception Task_failed 37 -> ()))
    pool_sizes

let test_reentrant_run () =
  (* a task that itself calls into the pool must not deadlock: the nested
     call degrades to serial inline execution *)
  Pool.with_pool ~size:2 (fun pool ->
      let outer =
        Pool.parallel_init pool 4 (fun i ->
            Array.fold_left ( + ) 0 (Pool.parallel_init pool 8 (fun j -> (10 * i) + j)))
      in
      Alcotest.(check (array int))
        "nested totals"
        (Array.init 4 (fun i -> (8 * 10 * i) + 28))
        outer)

let test_parallel_init_rng () =
  (* task [i] sees the [i]-th serial split of the parent, whatever the
     pool size: four raw draws name the stream, and no two streams agree *)
  let draws g = Array.init 4 (fun _ -> Prng.split_seed g) in
  let reference = Array.map draws (split_streams (Prng.create 77) 100) in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b -> if i < j && a = b then Alcotest.failf "streams %d and %d agree" i j)
        reference)
    reference;
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let got = Pool.parallel_init_rng pool ~rng:(Prng.create 77) 100 (fun g _ -> draws g) in
          Alcotest.(check bool) (Printf.sprintf "size %d = serial splits" size) true
            (got = reference)))
    pool_sizes

(* ---- The inline rule and the shared pool of one ---- *)

(* [run ()] with telemetry on, under a span of its own: the pool.chunk
   spans and the pool.runs count of the caller's trace. *)
let pool_telemetry run =
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.disable (); Obs.reset ()) @@ fun () ->
  Obs.span "probe" run;
  let trace =
    match Trace.parse (Obs.jsonl ()) with
    | Ok t -> t
    | Error e -> Alcotest.failf "the export does not parse: %s" e
  in
  let is_chunk sp = String.equal sp.Trace.sp_name "pool.chunk" in
  let runs = Option.value ~default:0.0 (List.assoc_opt "pool.runs" trace.Trace.counters) in
  (List.length (List.filter is_chunk trace.Trace.spans), runs)

let test_inline_runs_record_nothing () =
  (* a run on the pool of one, and a one-grain range on four domains, run
     inline: no chunk span, no pool.runs count *)
  let quiet label run =
    let chunks, runs = pool_telemetry run in
    Alcotest.(check int) (label ^ ": no pool.chunk span") 0 chunks;
    Alcotest.(check (float 0.0)) (label ^ ": no pool.runs count") 0.0 runs
  in
  quiet "monte carlo on Pool.serial" (fun () ->
      ignore
        (Monte_carlo.sample_array_pooled ~pool:Pool.serial ~trials:2000 ~rng:(Prng.create 9)
           ~f:(fun g _ -> Prng.float g) ()));
  let problem = Schedule.problem_of_soc (Soc.reference ()) in
  quiet "anneal on Pool.serial" (fun () ->
      ignore (Schedule.anneal ~restarts:4 ~iters:20 ~pool:Pool.serial problem));
  Pool.with_pool ~size:4 (fun pool ->
      quiet "one grain on 4 domains" (fun () ->
          let calls = ref [] in
          Pool.parallel_iter_grained pool ~n:16 ~grain:16
            ~f:(fun ~slot ~lo ~hi -> calls := (slot, lo, hi) :: !calls)
            ();
          Alcotest.(check (list (triple int int int)))
            "one call on the caller" [ (0, 0, 16) ] !calls);
      (* one item more than a grain is pooled and traced: one chunk per
         worker's share of 4 *)
      let chunks, runs =
        pool_telemetry (fun () ->
            Pool.parallel_iter_grained pool ~n:16 ~grain:15 ~f:(fun ~slot:_ ~lo:_ ~hi:_ -> ()) ())
      in
      Alcotest.(check int) "n > grain: one chunk span per share" 4 chunks;
      Alcotest.(check (float 0.0)) "n > grain: one pooled run" 1.0 runs)

let test_serial_shared_across_domains () =
  (* two domains sampling on the pool of one at once both get the result
     of a lone run *)
  let sample () =
    Monte_carlo.sample_array_pooled ~pool:Pool.serial ~trials:5000 ~rng:(Prng.create 31)
      ~f:(fun g i -> Prng.gaussian g +. float_of_int i)
      ()
  in
  let expected = sample () in
  let others = Array.init 2 (fun _ -> Domain.spawn sample) in
  Array.iteri
    (fun k d ->
      Alcotest.(check bool) (Printf.sprintf "domain %d = the lone run" k) true
        (Domain.join d = expected))
    others

let test_per_domain () =
  let made = Atomic.make 0 in
  let lookup = Pool.per_domain (fun n -> Atomic.incr made; Array.make n 0.0) in
  let a = lookup 64 in
  let before = Gc.minor_words () in
  let b = lookup 64 in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "a hit returns the same buffer" true (a == b);
  Alcotest.(check (float 0.0)) "a hit allocates nothing" 0.0 words;
  Alcotest.(check bool) "another length, another buffer" true (lookup 32 != a);
  let theirs = Domain.join (Domain.spawn (fun () -> lookup 64)) in
  Alcotest.(check bool) "another domain, another buffer" true (theirs != a);
  Alcotest.(check int) "one make per domain and length" 3 (Atomic.get made)

(* ---- Pooled Monte Carlo ---- *)

let test_monte_carlo_pooled () =
  let f g _ = Prng.gaussian g +. Prng.float g in
  let serial = Monte_carlo.sample_array_pooled ~trials:999 ~rng:(Prng.create 13) ~f () in
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let pooled =
            Monte_carlo.sample_array_pooled ~pool ~trials:999 ~rng:(Prng.create 13) ~f ()
          in
          Alcotest.(check bool) (Printf.sprintf "size %d bit-identical" size) true
            (pooled = serial)))
    pool_sizes

(* ---- Pooled fault simulation ---- *)

(* A filter small enough to simulate quickly but with many pool grains
   of faults, so the pooled path actually distributes them. *)
let small_fir () =
  let design = Msoc_dsp.Fir.lowpass ~taps:5 ~cutoff:0.2 () in
  let codes, scale = Msoc_dsp.Fir.quantize design.Msoc_dsp.Fir.taps ~bits:6 in
  Fir_netlist.create ~coeffs:codes ~width_in:8 ~scale ()

let fir_stimulus samples = Array.init samples (fun i -> ((i * 29) mod 256) - 128)

let test_fault_sim_pooled () =
  let fir = small_fir () in
  let faults = Fault.collapse fir.Fir_netlist.circuit (Fault.universe fir.Fir_netlist.circuit) in
  Alcotest.(check bool) "more than 63 faults" true (Array.length faults > 63);
  let samples = 128 in
  let stim = fir_stimulus samples in
  let drive sim cycle = Fir_netlist.drive fir sim stim.(cycle) in
  let observe ?pool () =
    Fault_sim.observe ?pool fir.Fir_netlist.circuit ~output:"y" ~drive ~samples ~faults
      ~on_fault:(fun _ _ stream -> Array.copy stream)
  in
  let serial_good, serial_streams = observe () in
  let serial_detect =
    Fault_sim.detect_exact fir.Fir_netlist.circuit ~output:"y" ~drive ~samples ~faults
  in
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let pooled_good, pooled_streams = observe ~pool () in
          Alcotest.(check (array int))
            (Printf.sprintf "size %d good stream" size)
            serial_good pooled_good;
          Alcotest.(check bool)
            (Printf.sprintf "size %d fault streams bit-identical" size)
            true
            (pooled_streams = serial_streams);
          let pooled_detect =
            Fault_sim.detect_exact ~pool fir.Fir_netlist.circuit ~output:"y" ~drive ~samples
              ~faults
          in
          Alcotest.(check bool)
            (Printf.sprintf "size %d detect_exact identical" size)
            true
            (pooled_detect = serial_detect)))
    pool_sizes

let test_detect_cycles_pooled () =
  (* the engine reports the same first-detect cycle for every fault at
     every pool size: each fault stops at its own first differing word,
     whichever worker simulates it *)
  let fir = small_fir () in
  let faults = Fault.collapse fir.Fir_netlist.circuit (Fault.universe fir.Fir_netlist.circuit) in
  let samples = 128 in
  (* hold the input at zero for the first 40 cycles so the
     activity-dependent faults are first detected late in the sweep *)
  let stim =
    Array.init samples (fun i -> if i < 40 then 0 else ((i * 29) mod 256) - 128)
  in
  let drive sim cycle = Fir_netlist.drive fir sim stim.(cycle) in
  let serial =
    Fault_sim.detect_cycles fir.Fir_netlist.circuit ~output:"y" ~drive ~samples ~faults
  in
  Alcotest.(check bool)
    "detections before and after cycle 32" true
    (Array.exists (fun c -> c >= 32) serial && Array.exists (fun c -> c >= 0 && c < 32) serial);
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let pooled =
            Fault_sim.detect_cycles ~pool fir.Fir_netlist.circuit ~output:"y" ~drive ~samples
              ~faults
          in
          Alcotest.(check (array int))
            (Printf.sprintf "size %d first-detect cycles identical" size)
            serial pooled))
    pool_sizes

(* ---- Pooled random-pattern grading ---- *)

let test_atpg_pooled () =
  let fir = small_fir () in
  let faults = Fault.collapse fir.Fir_netlist.circuit (Fault.universe fir.Fir_netlist.circuit) in
  let config = { Atpg_lite.patterns = 96; seed = 11 } in
  let serial = Atpg_lite.grade fir.Fir_netlist.circuit ~output:"y" ~faults config in
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let pooled = Atpg_lite.grade ~pool fir.Fir_netlist.circuit ~output:"y" ~faults config in
          Alcotest.(check bool)
            (Printf.sprintf "size %d grade flags identical" size)
            true
            (pooled.Atpg_lite.detected_flags = serial.Atpg_lite.detected_flags);
          Alcotest.(check int)
            (Printf.sprintf "size %d grade last_useful identical" size)
            serial.Atpg_lite.last_useful_pattern pooled.Atpg_lite.last_useful_pattern))
    pool_sizes

(* ---- Pooled spectrum analysis ---- *)

let test_analyze_many_pooled () =
  let g = Prng.create 321 in
  let signals =
    Array.init 9 (fun k ->
        Array.init 256 (fun i ->
            sin (2.0 *. Float.pi *. float_of_int ((k + 3) * i) /. 256.0)
            +. (0.01 *. (Prng.float g -. 0.5))))
  in
  let serial = Array.map (Spectrum.analyze ~sample_rate:1e6) signals in
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let pooled = Spectrum.analyze_many ~pool ~sample_rate:1e6 signals in
          Array.iteri
            (fun k sp ->
              Alcotest.(check bool)
                (Printf.sprintf "size %d signal %d bins identical" size k)
                true
                (sp.Spectrum.bins = serial.(k).Spectrum.bins))
            pooled))
    pool_sizes

(* ---- Pooled end-to-end spectral coverage ---- *)

let test_spectral_coverage_pooled () =
  let config =
    { Digital_test.default_config with Digital_test.taps = 5; Digital_test.input_bits = 8 }
  in
  let fir = Digital_test.build config in
  let faults = Digital_test.collapsed_faults fir in
  let fs = 1e6 in
  let samples = 256 in
  let f1 = Digital_test.coherent_tone ~sample_rate:fs ~samples ~target:90e3 in
  let codes =
    Digital_test.ideal_codes config ~sample_rate:fs ~samples ~freqs:[ f1 ] ~amplitude_fs:0.9
  in
  let run pool =
    Digital_test.spectral_coverage ?pool config fir ~sample_rate:fs ~input_codes:codes
      ~reference_codes:codes ~tone_freqs:[ f1 ] ~faults
  in
  let serial = run None in
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let pooled = run (Some pool) in
          Alcotest.(check int)
            (Printf.sprintf "size %d detected" size)
            serial.Digital_test.detected pooled.Digital_test.detected;
          Alcotest.(check bool)
            (Printf.sprintf "size %d undetected list identical" size)
            true
            (pooled.Digital_test.undetected = serial.Digital_test.undetected);
          Alcotest.(check bool)
            (Printf.sprintf "size %d deviations identical" size)
            true
            (pooled.Digital_test.undetected_max_dev_lsb
            = serial.Digital_test.undetected_max_dev_lsb);
          Alcotest.(check bool)
            (Printf.sprintf "size %d noise floor identical" size)
            true
            (Float.equal pooled.Digital_test.noise_floor_db serial.Digital_test.noise_floor_db)))
    pool_sizes

let () =
  Alcotest.run "msoc_pool"
    [ ( "primitives",
        [ Alcotest.test_case "chunk coverage" `Quick test_chunking;
          Alcotest.test_case "grained coverage" `Quick test_grained_coverage;
          Alcotest.test_case "grained hooks account items" `Quick test_grained_hooks;
          Alcotest.test_case "parallel_init" `Quick test_parallel_init;
          Alcotest.test_case "floats and map" `Quick test_parallel_floats_and_map;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "re-entrant run" `Quick test_reentrant_run ] );
      ( "rng streams",
        [ Alcotest.test_case "parallel_init_rng" `Quick test_parallel_init_rng;
          Alcotest.test_case "monte carlo pooled" `Quick test_monte_carlo_pooled ] );
      ( "inline",
        [ Alcotest.test_case "runs record nothing" `Quick test_inline_runs_record_nothing;
          Alcotest.test_case "Pool.serial shared across domains" `Quick
            test_serial_shared_across_domains;
          Alcotest.test_case "per_domain scratch" `Quick test_per_domain ] );
      ( "fault sim",
        [ Alcotest.test_case "observe/detect_exact pooled" `Quick test_fault_sim_pooled;
          Alcotest.test_case "detect_cycles pooled" `Quick test_detect_cycles_pooled;
          Alcotest.test_case "atpg grading pooled" `Quick test_atpg_pooled ] );
      ( "spectra",
        [ Alcotest.test_case "analyze_many pooled" `Quick test_analyze_many_pooled;
          Alcotest.test_case "spectral coverage pooled" `Quick test_spectral_coverage_pooled ] ) ]
