(* Performance harness: times the computational kernels with Bechamel,
   the domain pool's speedup over the serial paths, and the telemetry
   probes' cost with the pool's balance, and writes the rows as a bench
   report that `msoc bench-diff` gates.  The paper's artefacts are
   bench/paper.exe; the daemon is measured end to end by bench/e2e.

   Run with:   dune exec bench/main.exe            (full)
               dune exec bench/main.exe -- quick   (reduced sizes) *)

module Path = Msoc_analog.Path
module Prng = Msoc_util.Prng
module Pool = Msoc_util.Pool
module Texttable = Msoc_util.Texttable
module Monte_carlo = Msoc_stat.Monte_carlo
module Tone = Msoc_dsp.Tone
module Fir_netlist = Msoc_netlist.Fir_netlist
module Fault = Msoc_netlist.Fault
module Fault_sim = Msoc_netlist.Fault_sim
module Obs = Msoc_obs.Obs
module Trace = Msoc_obs.Trace
module Soc = Msoc_soc.Soc
module Soc_schedule = Msoc_soc.Schedule
open Msoc_synth

let quick =
  (* strict argv handling: "quick"/"--quick" select reduced sizes, anything
     else is a usage error rather than a silently ignored typo *)
  let args = Array.to_list (Array.sub Sys.argv 1 (Array.length Sys.argv - 1)) in
  List.iter
    (fun arg ->
      match arg with
      | "quick" | "--quick" -> ()
      | _ ->
        Printf.eprintf "bench: unknown argument %S\nusage: %s [--quick]\n" arg Sys.argv.(0);
        exit 2)
    args;
  args <> []

let section title =
  Format.printf "@.==================================================================@.";
  Format.printf "%s@." title;
  Format.printf "==================================================================@."

let path = Path.default_receiver ()

(* ------------------------------------------------------------------ *)
(* Machine-readable report: every section deposits its headline rows   *)
(* here; main () writes BENCH_<gitrev>.json + BENCH_latest.json.       *)
(* ------------------------------------------------------------------ *)

module Report = Msoc_obs.Report

let git_rev =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let rev = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when rev <> "" -> rev
    | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> "unknown"
  with _ -> "unknown"

let report =
  Report.create ~git_rev ~pool_size:(Pool.default_size ())
    ~mode:(if quick then "quick" else "full") ()

let () = Obs.set_build_info ~git_rev

(* ------------------------------------------------------------------ *)
(* Bechamel timing of the computational kernels.                       *)
(* ------------------------------------------------------------------ *)

let kernels () =
  section "Kernel timings (Bechamel)";
  let open Bechamel in
  (* A kernel is its Bechamel test and the closure that test times, which
     the exact minor-word count below runs again. *)
  let kernel ~name staged = (Test.make ~name staged, Staged.unstage staged) in
  (* The transform every spectrum runs: the real-input [rfft_into] into
     preallocated split output, at the tester's capture length (4096,
     radix-2) and at a Bluestein length (1000, half-length 500), with the
     plans warm (steady state) and rebuilt on every run (a cold process). *)
  let g = Prng.create 5 in
  let rfft_kernels n =
    let signal = Array.init n (fun _ -> Prng.float g -. 0.5) in
    let re = Array.make ((n / 2) + 1) 0.0 and im = Array.make ((n / 2) + 1) 0.0 in
    ( kernel ~name:(Printf.sprintf "rfft-%d" n)
        (Staged.stage (fun () -> Msoc_dsp.Fft.rfft_into signal ~re ~im)),
      kernel ~name:(Printf.sprintf "rfft-%d-cold" n)
        (Staged.stage (fun () ->
             Msoc_dsp.Fft.clear_plan_cache ();
             Msoc_dsp.Fft.rfft_into signal ~re ~im)) )
  in
  let rfft_test, rfft_cold_test = rfft_kernels 4096 in
  let rfft_bluestein_test, rfft_bluestein_cold_test = rfft_kernels 1000 in
  (* the Monte-Carlo trial loop on the pool of one: the seed table plus
     one scratch generator reseeded per trial *)
  let mc_rng = Prng.create 99 in
  let mc_arena_test =
    kernel ~name:"mc-arena-8192"
      (Staged.stage (fun () ->
           ignore
             (Monte_carlo.sample_array_pooled ~trials:8192 ~rng:mc_rng
                ~f:(fun g _ -> Prng.gaussian g)
                ())))
  in
  (* fault simulation: 62 faults over 256 cycles *)
  let design = Msoc_dsp.Fir.lowpass ~taps:9 ~cutoff:0.15 () in
  let codes, scale = Msoc_dsp.Fir.quantize design.Msoc_dsp.Fir.taps ~bits:8 in
  let fir = Fir_netlist.create ~coeffs:codes ~width_in:10 ~scale () in
  let faults_all = Fault.collapse fir.Fir_netlist.circuit (Fault.universe fir.Fir_netlist.circuit) in
  let faults = Array.sub faults_all 0 62 in
  let stimulus = Array.init 256 (fun i -> ((i * 37) mod 512) - 256) in
  let fsim_test =
    kernel ~name:"fault-sim-62x256"
      (Staged.stage (fun () ->
           ignore
             (Fault_sim.detect_exact fir.Fir_netlist.circuit ~output:"y"
                ~drive:(fun sim cycle -> Fir_netlist.drive fir sim stimulus.(cycle))
                ~samples:256 ~faults)))
  in
  (* the full collapsed fault set: serial vs pooled.
     The pooled kernel pins 8 domains (the ROADMAP target configuration)
     so its name and workload are machine-independent. *)
  let pool8 = Pool.create ~size:8 () in
  let fsim_serial_test =
    kernel ~name:(Printf.sprintf "fault-sim-%dx256-serial" (Array.length faults_all))
      (Staged.stage (fun () ->
           ignore
             (Fault_sim.detect_exact fir.Fir_netlist.circuit ~output:"y"
                ~drive:(fun sim cycle -> Fir_netlist.drive fir sim stimulus.(cycle))
                ~samples:256 ~faults:faults_all)))
  in
  let fsim_pooled_test =
    kernel
      ~name:(Printf.sprintf "fault-sim-%dx256-pool8" (Array.length faults_all))
      (Staged.stage (fun () ->
           ignore
             (Fault_sim.detect_exact ~pool:pool8 fir.Fir_netlist.circuit ~output:"y"
                ~drive:(fun sim cycle -> Fir_netlist.drive fir sim stimulus.(cycle))
                ~samples:256 ~faults:faults_all)))
  in
  (* fault dropping over a long sweep: graded first-detect cycles on 1024
     patterns — each fault stops at its first differing word *)
  let stimulus1024 = Array.init 1024 (fun i -> ((i * 37) mod 512) - 256) in
  let fsim_drop_test =
    kernel ~name:"fault-sim-drop"
      (Staged.stage (fun () ->
           ignore
             (Fault_sim.detect_cycles fir.Fir_netlist.circuit ~output:"y"
                ~drive:(fun sim cycle -> Fir_netlist.drive fir sim stimulus1024.(cycle))
                ~samples:1024 ~faults:faults_all)))
  in
  (* the paper's §5 spectral coverage end to end, serial: 13 taps, 12-bit
     input, 2048 two-tone samples — full-stream fault simulation of every
     collapsed fault plus one windowed FFT verdict per fault *)
  let spectral_config =
    { Digital_test.default_config with Digital_test.taps = 13; input_bits = 12 }
  in
  let spectral_fir = Digital_test.build spectral_config in
  let spectral_faults = Digital_test.collapsed_faults spectral_fir in
  let spectral_tones =
    List.map
      (fun target -> Digital_test.coherent_tone ~sample_rate:1e6 ~samples:2048 ~target)
      [ 90e3; 110e3 ]
  in
  let spectral_codes =
    Digital_test.ideal_codes spectral_config ~sample_rate:1e6 ~samples:2048 ~freqs:spectral_tones
      ~amplitude_fs:0.45
  in
  let spectral_test =
    kernel ~name:"faultsim-spectral"
      (Staged.stage (fun () ->
           ignore
             (Digital_test.spectral_coverage spectral_config spectral_fir ~sample_rate:1e6
                ~input_codes:spectral_codes ~reference_codes:spectral_codes
                ~tone_freqs:spectral_tones ~faults:spectral_faults)))
  in
  (* the spectral judge's cost per fault stream: the same filter's 2048-
     sample output judged against a prepared mask of its golden spectrum.
     The stream is the golden one, so no bin departs and every bin is
     compared — the most a verdict costs *)
  let judge_stream = Fir_netlist.response spectral_fir spectral_codes in
  let judge_scale = 1.0 /. float_of_int (1 lsl (spectral_fir.Fir_netlist.width_acc - 1)) in
  let judge_golden =
    Msoc_dsp.Spectrum.analyze ~sample_rate:1e6
      (Array.map (fun y -> float_of_int y *. judge_scale) judge_stream)
  in
  let judge_bins = Msoc_dsp.Spectrum.bin_count judge_golden in
  let judge_mask =
    Msoc_dsp.Spectrum.mask judge_golden ~floor_db:(Array.make judge_bins (-140.0))
      ~excluded:(Array.make judge_bins false) ~tolerance_db:3.0
  in
  let departs_test =
    kernel ~name:"spectrum-departs-2048"
      (Staged.stage (fun () ->
           ignore (Msoc_dsp.Spectrum.departs judge_mask ~scale:judge_scale judge_stream)))
  in
  (* analog path waveform simulation, 1024 sim samples: the engine is
     built inside the timed closure, so the row times drawing the noise
     tracks plus one run *)
  let wave = Tone.synthesize ~sample_rate:8e6 ~samples:1024 [ Tone.component ~freq:1.1e6 ~amplitude:0.02 () ] in
  let path_test =
    kernel ~name:"path-sim-1024"
      (Staged.stage (fun () ->
           let engine = Path.engine path (Path.nominal_part path) ~seed:3 ~samples:1024 in
           ignore (Path.run_codes engine wave)))
  in
  (* the virtual tester: the default receiver's nominal part through the
     adaptive measurement set — one session engine, every capture
     replaying it *)
  let measure_part = Path.nominal_part path in
  let measure_test =
    kernel ~name:"measure-validate"
      (Staged.stage (fun () ->
           ignore
             (Msoc_synth.Measure.validate_part path measure_part
                ~strategy:Propagate.Adaptive)))
  in
  (* analytic coverage *)
  let population = Coverage.defective_population ~nominal:23.0 ~tol:1.5 in
  let coverage_test =
    kernel ~name:"coverage-analytic"
      (Staged.stage (fun () ->
           ignore
             (Coverage.analytic ~population ~bound:(Spec.At_least 21.5)
                ~error:(Coverage.Uniform_err 1.1) ~threshold_shift:0.0)))
  in
  let plan_test =
    kernel ~name:"plan-synthesis" (Staged.stage (fun () -> ignore (Plan.synthesize path)))
  in
  (* one plan-synthesis kernel per registered non-default topology, so the
     bench-diff gate also covers the generic stage-iteration core *)
  let topology_plan_tests =
    List.filter_map
      (fun name ->
        if String.equal name "default" then None
        else
          Option.map
            (fun p ->
              kernel ~name:("plan-synthesis-" ^ name)
                (Staged.stage (fun () -> ignore (Plan.synthesize p))))
            (Msoc_analog.Topology.build name))
      Msoc_analog.Topology.names
  in
  (* SOC schedule search over the reference problem: greedy decode plus a
     short annealing walk.  The problem is built once outside the kernel —
     per-core synthesis is already timed by the plan kernels. *)
  let soc_problem = Soc_schedule.problem_of_soc (Soc.reference ()) in
  let soc_schedule_test =
    kernel ~name:"soc-schedule"
      (Staged.stage (fun () ->
           ignore (Soc_schedule.greedy soc_problem);
           ignore (Soc_schedule.anneal ~restarts:2 ~iters:50 soc_problem)))
  in
  (* Every kernel is also measured for GC load (major words per run from
     Bechamel's allocation instance, major collections from a
     [Gc.quick_stat] bracket around the whole run, minor words exactly, as
     below), and the quick-mode statistics are fixed: a kernel that yields
     fewer than [min_samples] post-warm-up samples is rerun with a doubled
     time quota (twice at most), and the first sample of each run — taken
     while caches, branch predictors and the plan tables are still cold —
     is discarded. *)
  let min_samples = Msoc_stat.Bench_diff.min_samples in
  let instances = Toolkit.Instance.[ major_allocated; monotonic_clock ] in
  (* Minor words per run, exact and across every domain: three more runs,
     bracketed by a minor collection and then [Gc.quick_stat].  The
     collection empties every domain's minor heap, so the counter that
     [quick_stat] sums over the domains is current to within a few words,
     and a pooled kernel's workers are counted with its caller.
     [Gc.minor_words] would count the calling domain only, and
     [quick_stat] alone (Bechamel's [minor_allocated]) advances only at a
     minor collection.  The bracket's own [quick_stat] records land inside
     it, so the reading of an empty closure is subtracted (clamped at 0):
     an allocation-free kernel reads 0. *)
  let bracketed_minor_words run =
    let reps = 3 in
    let minor_words () =
      Gc.minor ();
      (Gc.quick_stat ()).Gc.minor_words
    in
    let before = minor_words () in
    for _ = 1 to reps do
      run ()
    done;
    (minor_words () -. before) /. float_of_int reps
  in
  let probe_floor = bracketed_minor_words (fun () -> ()) in
  let exact_minor_words run = Float.max 0.0 (bracketed_minor_words run -. probe_floor) in
  let benchmark_adaptive test =
    let rec go quota attempt =
      let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 1000) () in
      let gc0 = Gc.quick_stat () in
      let raw = Benchmark.all cfg instances test in
      let gc1 = Gc.quick_stat () in
      let enough =
        Hashtbl.fold
          (fun _ (b : Benchmark.t) acc -> acc && Array.length b.Benchmark.lr > min_samples)
          raw true
      in
      if enough || attempt >= 2 then
        (raw, gc1.Gc.major_collections - gc0.Gc.major_collections)
      else go (quota *. 2.0) (attempt + 1)
    in
    go 0.5 0
  in
  let analyze raw =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols (Toolkit.Instance.monotonic_clock) raw
  in
  let t = Texttable.create ~headers:[ "Kernel"; "ns/run"; "minor w/run" ] in
  let clock_label = Measure.label Toolkit.Instance.monotonic_clock in
  let major_label = Measure.label Toolkit.Instance.major_allocated in
  List.iter
    (fun (test, run) ->
      let raw, major_cols = benchmark_adaptive test in
      let minor_words = exact_minor_words run in
      let results = analyze raw in
      (* the report stores the raw per-sample ns/run distribution, which is
         what bench-diff's Welch intervals need (OLS gives no stddev) *)
      let stable_name name =
        (* drop the host pool size from "...-poolN" so the row pairs with a
           baseline recorded on a machine with a different core count *)
        let rec find i =
          if i + 5 > String.length name then name
          else if String.equal (String.sub name i 5) "-pool" then String.sub name 0 i ^ "-pool"
          else find (i + 1)
        in
        find 0
      in
      Hashtbl.iter
        (fun name (b : Benchmark.t) ->
          let lr = b.Benchmark.lr in
          (* warm-up discard *)
          let kept = if Array.length lr > 1 then Array.sub lr 1 (Array.length lr - 1) else lr in
          let per label =
            Array.map (fun m -> Measurement_raw.get ~label m /. Measurement_raw.run m) kept
          in
          let samples = per clock_label in
          if Array.length samples > 0 then begin
            let s = Msoc_stat.Describe.summarize samples in
            let mean a =
              Array.fold_left ( +. ) 0.0 a /. float_of_int (max 1 (Array.length a))
            in
            let major_words = mean (per major_label) in
            let total_runs =
              Array.fold_left (fun acc m -> acc +. Measurement_raw.run m) 0.0 lr
            in
            let major_collections =
              float_of_int major_cols /. Float.max total_runs 1.0
            in
            let nanos =
              match Hashtbl.find_opt results name with
              | Some ols ->
                (match Analyze.OLS.estimates ols with Some (v :: _) -> v | Some [] | None -> nan)
              | None -> nan
            in
            Texttable.add_row t
              [ name; Printf.sprintf "%.0f" nanos; Printf.sprintf "%.0f" minor_words ];
            Report.add_timing report ~section:"kernels" ~name:(stable_name name)
              ~mean_ns:s.Msoc_stat.Describe.mean ~stddev_ns:s.Msoc_stat.Describe.stddev
              ~samples:s.Msoc_stat.Describe.count ~minor_words ~major_words
              ~major_collections ();
            (* The spectral judge's allocation, gated on its own: a bound
               fails bench-diff at any --tolerance.  4.78 M words sits 10x
               under the 47.8 M that one spectrum per fault costs on this
               workload, so per-fault allocation cannot return unnoticed. *)
            if String.equal name "faultsim-spectral" then
              Report.add_scalar report ~section:"kernels" ~name:"faultsim-spectral minor Mwords"
                ~unit_label:"Mwords" ~bound:(Report.Le 4.78) (minor_words /. 1e6);
            (* The same gate for the scheduler: 0.122 M words sits 10x under
               the 1.22 M that a list decoder allocating on every annealing
               move costs here, so per-move allocation cannot return
               unnoticed. *)
            if String.equal name "soc-schedule" then
              Report.add_scalar report ~section:"kernels" ~name:"soc-schedule minor Mwords"
                ~unit_label:"Mwords" ~bound:(Report.Le 0.122) (minor_words /. 1e6);
            (* And for plan synthesis: 0.05 M words sits 5x over the one
               loss-integral pass (~0.01 M) and 18x under the 0.89 M that
               routing every Simpson node through a cross-module call
               boxes, so per-node allocation cannot return unnoticed. *)
            if String.equal name "plan-synthesis" then
              Report.add_scalar report ~section:"kernels" ~name:"plan-synthesis minor Mwords"
                ~unit_label:"Mwords" ~bound:(Report.Le 0.05) (minor_words /. 1e6)
          end)
        raw)
    ([ rfft_test; rfft_cold_test; rfft_bluestein_test; rfft_bluestein_cold_test;
       mc_arena_test; fsim_test; fsim_serial_test; fsim_pooled_test; fsim_drop_test;
       spectral_test; departs_test; path_test; measure_test; coverage_test; plan_test ]
    @ topology_plan_tests @ [ soc_schedule_test ]);
  Texttable.print t;
  (* The faultsim-spectral kernel's work, read from one traced run: the
     judge spans, the golden stream's included, and the fault
     simulator's instructions (program length times words evaluated,
     summed over the simulated faults).  Each class of equivalent faults
     is judged once, on its representative; judging every fault reads
     5837.  Each full adder runs as one instruction; gate by gate reads
     about 3x the instructions.  The counts do not drift with the host,
     and a bound fails bench-diff at any --tolerance, so losing the class
     map or the fused adders cannot pass unnoticed. *)
  Obs.enable ();
  Obs.reset ();
  snd spectral_test ();
  Obs.disable ();
  let trace = Result.fold ~ok:Fun.id ~error:failwith (Trace.parse (Obs.jsonl ())) in
  Obs.reset ();
  let judged =
    List.length
      (List.filter (fun sp -> sp.Trace.sp_name = "digital_test.judge") trace.Trace.spans)
  in
  Format.printf "faultsim-spectral judged streams: %d@." judged;
  Report.add_scalar report ~section:"kernels" ~name:"faultsim-spectral judged streams"
    ~unit_label:"streams" ~bound:(Report.Le 4779.0) (float_of_int judged);
  let instructions =
    Option.value ~default:0.0 (List.assoc_opt "fault_sim.instructions" trace.Trace.counters)
  in
  Format.printf "faultsim-spectral instructions: %.0f@." instructions;
  Report.add_scalar report ~section:"kernels" ~name:"faultsim-spectral instructions"
    ~unit_label:"instructions" ~bound:(Report.Le 27441579.0) instructions

(* ------------------------------------------------------------------ *)
(* Wall-clock speedup of the pooled engines vs their serial paths.     *)
(* Each pooled result is compared with the serial one; a difference    *)
(* fails the bench once the table is printed.                          *)
(* ------------------------------------------------------------------ *)

let parallel_speedup () =
  section "Parallel speedup — domain pool vs serial (bit-identical results)";
  Format.printf "host: %d recommended domain(s); default pool size %d@.@."
    (Domain.recommended_domain_count ()) (Pool.default_size ());
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Fault simulation: the 13-tap production filter, full collapsed fault
     set, 512 cycles. *)
  let config = Digital_test.default_config in
  let fir = Digital_test.build config in
  let faults = Digital_test.collapsed_faults fir in
  let samples = if quick then 256 else 512 in
  let fs = 1e6 in
  let f1 = Digital_test.coherent_tone ~sample_rate:fs ~samples ~target:90e3 in
  let stim =
    Digital_test.ideal_codes config ~sample_rate:fs ~samples ~freqs:[ f1 ] ~amplitude_fs:0.9
  in
  let drive sim cycle = Fir_netlist.drive fir sim stim.(cycle) in
  let detect pool () =
    Fault_sim.detect_exact ?pool fir.Fir_netlist.circuit ~output:"y" ~drive ~samples ~faults
  in
  let serial, t_serial = time (detect None) in
  let identical = ref true in
  let identity same =
    if same then "yes"
    else begin
      identical := false;
      "NO — DETERMINISM BUG"
    end
  in
  let t = Texttable.create ~headers:[ "Engine"; "Pool size"; "Time (s)"; "Speedup"; "Identical" ] in
  Texttable.add_row t
    [ "fault sim"; "serial"; Printf.sprintf "%.3f" t_serial; "1.00x"; "-" ];
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let pooled, t_pooled = time (detect (Some pool)) in
          Report.add_scalar report ~section:"parallel-speedup"
            ~name:(Printf.sprintf "fault-sim pool%d speedup" size) ~unit_label:"x"
            (t_serial /. t_pooled);
          Texttable.add_row t
            [ "fault sim";
              string_of_int size;
              Printf.sprintf "%.3f" t_pooled;
              Printf.sprintf "%.2fx" (t_serial /. t_pooled);
              identity (pooled = serial) ]))
    [ 2; 4; 8 ];
  (* Monte-Carlo trial loop: the Figure 4 error model at full size. *)
  let trials = if quick then 200_000 else 1_000_000 in
  let trial = Propagate.mixer_iip3_trial path ~strategy:Propagate.Nominal_gains in
  let mc pool () =
    Monte_carlo.sample_array_pooled ?pool ~trials ~rng:(Prng.create 2718) ~f:trial ()
  in
  let mc_serial, t_mc_serial = time (mc None) in
  Texttable.add_row t
    [ Printf.sprintf "MC %dk trials" (trials / 1000);
      "serial"; Printf.sprintf "%.3f" t_mc_serial; "1.00x"; "-" ];
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let pooled, t_pooled = time (mc (Some pool)) in
          Report.add_scalar report ~section:"parallel-speedup"
            ~name:(Printf.sprintf "monte-carlo pool%d speedup" size) ~unit_label:"x"
            (t_mc_serial /. t_pooled);
          Texttable.add_row t
            [ Printf.sprintf "MC %dk trials" (trials / 1000);
              string_of_int size;
              Printf.sprintf "%.3f" t_pooled;
              Printf.sprintf "%.2fx" (t_mc_serial /. t_pooled);
              identity (pooled = mc_serial) ]))
    [ 2; 4 ];
  Texttable.print t;
  Format.printf
    "Speedups track the physical core count: on a single-core host the pooled@.\
     runs time-share one CPU (expect ~1x or slightly below); with >= 4 cores the@.\
     fault-sim and MC rows approach the pool size.  Identical = pooled output is@.\
     bit-for-bit the serial output, the pool's determinism contract.@.";
  (* enforced, not just printed: a pooled result that differs from the
     serial one breaks the pool's determinism contract *)
  if not !identical then begin
    Format.printf "FAIL: a pooled result differs from the serial one@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Telemetry: probe overhead (enabled vs disabled) and pool balance.   *)
(* ------------------------------------------------------------------ *)

let telemetry_overhead () =
  section "Telemetry — probe overhead and per-domain pool balance";
  (* Explicit timed loops rather than Bechamel: Bechamel's iteration counts
     would blow through the per-sink event cap with spans enabled and end
     up timing the overflow path instead of the record path. *)
  let time_per_op n f =
    let t0 = Obs.now_ns () in
    for _ = 1 to n do
      f ()
    done;
    let t1 = Obs.now_ns () in
    Int64.to_float (Int64.sub t1 t0) /. float_of_int n
  in
  Obs.disable ();
  Obs.reset ();
  let n_off = if quick then 200_000 else 2_000_000 in
  let off_count = time_per_op n_off (fun () -> Obs.count "bench.probe") in
  let off_observe = time_per_op n_off (fun () -> Obs.observe "bench.hist" 1.0) in
  let off_span = time_per_op n_off (fun () -> Obs.span "bench.span" (fun () -> ())) in
  Obs.enable ();
  Obs.reset ();
  let n_on = if quick then 100_000 else 500_000 in
  let on_count = time_per_op n_on (fun () -> Obs.count "bench.probe") in
  let on_observe = time_per_op n_on (fun () -> Obs.observe "bench.hist" 1.0) in
  Obs.reset ();
  (* stays under the per-sink event cap, so every span is actually recorded *)
  let n_span = min 100_000 (Obs.max_events - 1) in
  let on_span = time_per_op n_span (fun () -> Obs.span "bench.span" (fun () -> ())) in
  Obs.disable ();
  Obs.reset ();
  let t = Texttable.create ~headers:[ "Probe"; "Disabled (ns/op)"; "Enabled (ns/op)" ] in
  Texttable.add_row t
    [ "counter"; Printf.sprintf "%.1f" off_count; Printf.sprintf "%.1f" on_count ];
  Texttable.add_row t
    [ "histogram"; Printf.sprintf "%.1f" off_observe; Printf.sprintf "%.1f" on_observe ];
  Texttable.add_row t
    [ "span"; Printf.sprintf "%.1f" off_span; Printf.sprintf "%.1f" on_span ];
  Texttable.print t;
  List.iter
    (fun (name, value) ->
      Report.add_scalar report ~section:"telemetry-overhead" ~name ~unit_label:"ns/op" value)
    [ ("counter disabled", off_count); ("counter enabled", on_count);
      ("histogram disabled", off_observe); ("histogram enabled", on_observe);
      ("span disabled", off_span); ("span enabled", on_span) ];
  Format.printf "Disabled probes are one atomic load + branch each (3-5 ns on the reference@.\
                 host); the %.0f ns acceptance bound applies to the Disabled column.@."
    50.0;
  (* enforced, not just printed: a disabled probe creeping past the bound is
     a hot-path regression for every instrumented kernel *)
  List.iter
    (fun (name, v) ->
      if v > 50.0 then begin
        Format.printf "FAIL: %s disabled-path cost %.1f ns/op exceeds the 50 ns bound@." name v;
        exit 1
      end)
    [ ("counter", off_count); ("histogram", off_observe); ("span", off_span) ];
  (* Pool balance: run the pooled exact-detection fault sim with telemetry
     on and print its per-slot occupancy. *)
  let config = Digital_test.default_config in
  let fir = Digital_test.build config in
  let faults = Digital_test.collapsed_faults fir in
  let samples = if quick then 256 else 512 in
  let fs = 1e6 in
  let f1 = Digital_test.coherent_tone ~sample_rate:fs ~samples ~target:90e3 in
  let stim =
    Digital_test.ideal_codes config ~sample_rate:fs ~samples ~freqs:[ f1 ] ~amplitude_fs:0.9
  in
  let drive sim cycle = Fir_netlist.drive fir sim stim.(cycle) in
  Obs.enable ();
  Obs.reset ();
  Pool.with_pool ~size:4 (fun pool ->
      ignore
        (Fault_sim.detect_exact ~pool fir.Fir_netlist.circuit ~output:"y" ~drive ~samples
           ~faults));
  Obs.disable ();
  let trace = Result.fold ~ok:Fun.id ~error:failwith (Trace.parse (Obs.jsonl ())) in
  let counter name = Option.value ~default:0.0 (List.assoc_opt name trace.Trace.counters) in
  (* grain-scheduler evidence: how many grains moved between workers, and
     the chunk-size distribution the grain heuristic produced *)
  let steals = counter "pool.steals" in
  Report.add_scalar report ~section:"pool-balance" ~name:"steals" steals;
  Report.add_scalar report ~section:"pool-balance" ~name:"fault_sim dropped"
    (counter "fault_sim.dropped");
  (match List.find_opt (fun h -> h.Trace.hist = "pool.chunk.items") trace.Trace.hists with
  | Some h when h.Trace.hist_count > 0 ->
    Format.printf
      "grain scheduling: %d chunk(s), %.1f items/chunk mean (min %.0f, max %.0f), %.0f steal(s)@."
      h.Trace.hist_count
      (h.Trace.sum /. float_of_int h.Trace.hist_count)
      h.Trace.min_value h.Trace.max_value steals;
    Report.add_scalar report ~section:"pool-balance" ~name:"chunk items mean"
      (h.Trace.sum /. float_of_int h.Trace.hist_count)
  | Some _ | None -> ());
  Format.printf "@.Pool balance — fault sim detect_exact, pool size 4 (%d faults, %d cycles):@."
    (Array.length faults) samples;
  print_string (Trace.utilization trace);
  (* the imbalance of the slots that ran a chunk, from the rows above *)
  let busy =
    List.filter_map
      (fun s -> if s.Trace.chunks > 0 then Some s.Trace.busy_ns else None)
      trace.Trace.slots
  in
  let n_active = List.length busy in
  if n_active > 0 then begin
    let max_busy = List.fold_left Float.max 0.0 busy in
    let mean_busy = List.fold_left ( +. ) 0.0 busy /. float_of_int n_active in
    Format.printf "imbalance (max busy / mean busy): %.2f across %d active domain(s)@."
      (max_busy /. Float.max mean_busy 1.0)
      n_active;
    Report.add_scalar report ~section:"pool-balance" ~name:"active domains"
      (float_of_int n_active);
    Report.add_scalar report ~section:"pool-balance" ~name:"imbalance max/mean"
      ~unit_label:"ratio"
      (max_busy /. Float.max mean_busy 1.0)
  end;
  Obs.reset ()

let () =
  Format.printf "Mixed-signal SOC path test synthesis — performance bench%s@."
    (if quick then " (quick mode)" else "");
  kernels ();
  parallel_speedup ();
  telemetry_overhead ();
  let r = Report.finalize report in
  let rev_file = Printf.sprintf "BENCH_%s.json" git_rev in
  Report.write rev_file r;
  Report.write "BENCH_latest.json" r;
  Format.printf "@.report: wrote %s and BENCH_latest.json@." rev_file;
  Format.printf "@.Done.@."
