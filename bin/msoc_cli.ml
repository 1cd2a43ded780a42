(* msoc — command-line front end for the mixed-signal SOC test-synthesis
   library.

   Subcommands:
     plan        synthesise and print the system-level test plan
     coverage    FCL/YL threshold analysis for one propagated parameter
     faultsim    spectral stuck-at fault simulation of the digital filter
     montecarlo  Monte-Carlo de-embedding error study (Figure 4 model)
     spectrum    simulate the receiver path and report SNR/SFDR/IM3
     measure     run the virtual tester against a manufactured part
     schedule    pack a whole SOC's tests under bus and power constraints
     trace       analyse a saved telemetry trace offline
     bench-diff  compare two bench reports and gate on regressions
     serve       long-running synthesis daemon over a Unix socket
     client      send one request to a running daemon

   The compute verbs (plan, measure, faultsim, montecarlo, schedule) take
   their request flags from Msoc_serve.Protocol.fields and call the same
   Msoc_serve.Verbs bodies the daemon executes, so offline output diffs
   clean against daemon responses.

   Exit codes: 0 success; 1 runtime failure; 2 usage error; 3 bench-diff
   regression (or missing section). *)

module Path = Msoc_analog.Path
module Context = Msoc_analog.Context
module Units = Msoc_util.Units
module Texttable = Msoc_util.Texttable
module Tone = Msoc_dsp.Tone
module Spectrum = Msoc_dsp.Spectrum
module Metrics = Msoc_dsp.Metrics
module Obs = Msoc_obs.Obs
module Progress = Msoc_obs.Progress
module Trace = Msoc_obs.Trace
module Soc = Msoc_soc.Soc
module Serve_protocol = Msoc_serve.Protocol
module Serve_verbs = Msoc_serve.Verbs
module Serve_server = Msoc_serve.Server
module Serve_client = Msoc_serve.Client
open Msoc_synth

(* ---- telemetry flags (shared by every subcommand) ---- *)

type metrics_format = Metrics_text | Metrics_prom

type telemetry = {
  events : string option;
  metrics : bool;
  metrics_format : metrics_format option;
      (* an explicit --metrics-format implies metrics output *)
}

let telemetry_term =
  let open Cmdliner in
  let events =
    Arg.(value & opt (some string) None
         & info [ "events" ] ~docv:"FILE"
             ~doc:"Record telemetry and write the trace to $(docv): the JSONL event \
                   stream that $(b,msoc trace) analyses and converts (to a Chrome \
                   trace_event profile with $(b,msoc trace chrome)).")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Record telemetry and print the trace's summary on exit (the same \
                   bytes $(b,msoc trace summary) prints for the $(b,--events) file).")
  in
  let metrics_format =
    let fmt =
      Arg.conv
        ( (function
          | "text" -> Ok Metrics_text
          | "prom" -> Ok Metrics_prom
          | s -> Error (`Msg (Printf.sprintf "unknown metrics format %S (text|prom)" s))),
          fun ppf f ->
            Format.pp_print_string ppf
              (match f with Metrics_text -> "text" | Metrics_prom -> "prom") )
    in
    Arg.(value & opt (some fmt) None
         & info [ "metrics-format" ] ~docv:"FMT"
             ~doc:"Metrics output format: $(b,text) (human summary, the default) or \
                   $(b,prom) (Prometheus text exposition).  Implies $(b,--metrics).")
  in
  Term.(const (fun events metrics metrics_format -> { events; metrics; metrics_format })
        $ events $ metrics $ metrics_format)

(* Stamp the Prometheus build-info gauge with the working tree's short
   rev when one is discoverable (same probe the bench harness uses). *)
let set_build_info () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> ()
  | ic ->
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    (match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some rev when rev <> "" -> Obs.set_build_info ~git_rev:rev
    | _ -> ())

(* Run [f] under a root span when any telemetry output was requested;
   exporters run even if [f] raises, so a failing run still leaves a
   usable profile behind. *)
let with_telemetry tel ~command f =
  let wants_metrics = tel.metrics || tel.metrics_format <> None in
  if tel.events = None && not wants_metrics then f ()
  else begin
    Obs.enable ();
    Obs.reset ();
    if wants_metrics then set_build_info ();
    let finish () =
      Obs.disable ();
      Option.iter
        (fun file ->
          Obs.write_jsonl file;
          Format.eprintf "telemetry: events written to %s@." file)
        tel.events;
      if wants_metrics then begin
        print_newline ();
        Obs.warn_if_dropped ();
        print_string
          (match Option.value tel.metrics_format ~default:Metrics_text with
          | Metrics_text ->
            Result.fold ~ok:Trace.summary ~error:failwith (Trace.parse (Obs.jsonl ()))
          | Metrics_prom -> Obs.to_prometheus ())
      end
    in
    match Obs.span "msoc" ~args:[ ("command", command) ] f with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Every command evaluates to its exit code; the plain reporting commands
   succeed with 0 whenever they return at all. *)
let code0 term = Cmdliner.Term.(const (fun () -> 0) $ term)

(* ---- request flags: one per row of [Protocol.fields], so each flag's
   name, doc, accepted values and default are the protocol's own — a bare
   CLI run and a bare daemon request describe the same computation ---- *)

(* An unknown name is a usage error naming the field and the known names. *)
let field_conv : type a. string -> a Serve_protocol.kind -> a Cmdliner.Arg.conv =
 fun name -> function
  | Serve_protocol.Int -> Cmdliner.Arg.int
  | Serve_protocol.Name known ->
    let parse s =
      if List.mem s known then Ok s
      else
        Error
          (`Msg
             (Printf.sprintf "unknown %s %S (known: %s)" name s (String.concat ", " known)))
    in
    Cmdliner.Arg.conv (parse, Format.pp_print_string)

(* The flags of [rows] as one term setting their fields on a request.
   Defaults do not depend on the verb, so one request supplies them all. *)
let flags_term rows =
  let open Cmdliner in
  let defaults = Serve_protocol.request Serve_protocol.Plan in
  List.fold_left
    (fun set (Serve_protocol.Field f) ->
      let value =
        Arg.(value
             & opt (field_conv f.name f.kind) (f.get defaults)
             & info [ String.map (function '_' -> '-' | c -> c) f.name ] ?docv:f.docv
                 ~doc:f.doc)
      in
      Term.(const (fun set v r -> f.set (set r) v) $ set $ value))
    (Term.const Fun.id) rows

(* A finished request of [verb], with one flag per field the verb reads. *)
let request_term verb =
  Cmdliner.Term.(
    const (fun set -> set (Serve_protocol.request verb))
    $ flags_term (List.filter (Serve_protocol.reads verb) Serve_protocol.fields))

(* ---- the compute subcommands: plan, measure, faultsim, montecarlo and
   schedule run the same Msoc_serve.Verbs body the daemon executes ---- *)

module Audit = Msoc_synth.Audit
module Topology = Msoc_analog.Topology

let progress_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:"Render a live progress heartbeat (work done, coverage so far, ETA) to \
              stderr while the engines run.  The heartbeat polls atomic cells off the \
              hot path, so it cannot change any result.")

(* Print the audit trail of the plans [req] synthesized and write it as
   JSON to [file]. *)
let write_audit req file =
  let records = Serve_verbs.audit req in
  Format.printf "@.%s" (Audit.to_text records);
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Audit.to_json records ^ "\n"));
  Format.eprintf "audit: %d provenance records written to %s@." (List.length records) file

(* One body for all five: run the finished request on the default pool —
   bit-identical to the serial path at any MSOC_DOMAINS — and print the
   rendered body.  [render] adds --progress; [listing] adds a flag that
   prints a registry instead, and --audit. *)
let compute_cmd ?render ?listing verb ~doc =
  let open Cmdliner in
  let name = Serve_protocol.verb_name verb in
  let progress = match render with None -> Term.const false | Some _ -> progress_arg in
  let list, print_list, audit =
    match listing with
    | None -> (Term.const false, ignore, Term.const None)
    | Some (list_arg, print_list, audit_doc) ->
      ( list_arg,
        print_list,
        Arg.(value & opt (some string) None & info [ "audit" ] ~docv:"FILE" ~doc:audit_doc) )
  in
  let run tel req progress list audit =
    with_telemetry tel ~command:name @@ fun () ->
    if list then print_list ()
    else begin
      let compute () = Serve_verbs.run ~pool:(Msoc_util.Pool.get_default ()) req in
      print_string
        (match render with
        | Some render when progress -> Progress.with_ticker ~render compute
        | _ -> compute ());
      Option.iter (write_audit req) audit
    end
  in
  Cmd.v (Cmd.info name ~doc)
    (code0 Term.(const run $ telemetry_term $ request_term verb $ progress $ list $ audit))

(* ---- plan ---- *)

let list_topologies_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "list-topologies" ] ~doc:"List the registered topologies and exit.")

let print_topologies () =
  let t = Texttable.create ~headers:[ "Topology"; "Stages" ] in
  List.iter (fun (name, summary) -> Texttable.add_row t [ name; summary ])
    Topology.summaries;
  Texttable.print t

let plan_cmd =
  compute_cmd Serve_protocol.Plan ~doc:"Synthesise the system-level test plan"
    ~listing:
      ( list_topologies_arg,
        print_topologies,
        "Record the synthesis audit trail (per-parameter provenance: strategy, stimulus, \
         achieved vs required accuracy, error-budget contributions), write it as JSON to \
         $(docv) and print the text report." )

(* ---- coverage ---- *)

let param_conv =
  let parse = function
    | "iip3" | "p1db" | "fc" | "isolation" | "inl" as s -> Ok s
    | s -> Error (`Msg (Printf.sprintf "unknown parameter %S (iip3|p1db|fc|isolation|inl)" s))
  in
  Cmdliner.Arg.conv (parse, Format.pp_print_string)

let measurement_of_name path strategy = function
  | "iip3" -> Propagate.mixer_iip3 path ~strategy
  | "p1db" -> Propagate.mixer_p1db path ~strategy
  | "fc" -> Propagate.lpf_cutoff path ~strategy
  | "isolation" -> Propagate.mixer_lo_isolation path ~strategy
  | "inl" -> Propagate.adc_inl path
  | s -> invalid_arg s

let run_coverage tel strategy param =
  with_telemetry tel ~command:"coverage" @@ fun () ->
  let path = Path.default_receiver () in
  let m = measurement_of_name path strategy param in
  let err = Propagate.err m in
  Format.printf "%a@.@." Propagate.pp m;
  match Plan.population_of_spec m.Propagate.spec with
  | None -> Format.printf "parameter has no toleranced population model@."
  | Some population ->
    let t = Texttable.create ~headers:[ "Threshold"; "FCL"; "YL" ] in
    List.iter
      (fun (label, losses) ->
        Texttable.add_row t
          [ label;
            Texttable.cell_pct losses.Coverage.fcl;
            Texttable.cell_pct losses.Coverage.yl ])
      (Coverage.threshold_rows ~population ~bound:m.Propagate.spec.Spec.bound ~err
         ~error:(Coverage.Uniform_err err));
    Texttable.print t

let coverage_cmd =
  let open Cmdliner in
  let param =
    Arg.(value & opt param_conv "iip3" & info [ "param" ] ~docv:"PARAM"
           ~doc:"Parameter: iip3, p1db, fc, isolation or inl.")
  in
  let strategy =
    Term.(
      const (fun set -> Serve_verbs.strategy_of (set (Serve_protocol.request Serve_protocol.Plan)))
      $ flags_term
          (List.filter (fun (Serve_protocol.Field f) -> f.name = "strategy")
             Serve_protocol.fields))
  in
  Cmd.v (Cmd.info "coverage" ~doc:"FCL/YL threshold analysis for a propagated test")
    (code0 Term.(const run_coverage $ telemetry_term $ strategy $ param))

(* ---- faultsim ---- *)

(* Heartbeat line for the fault simulation: faults are simulated one per
   equivalence class and each simulated stream is judged on the spot, so
   the simulated cells, which count classes, alone measure progress.
   Reads only the engines' published cells. *)
let render_faultsim ~elapsed_s =
  let v name = Progress.value (Progress.cell name) in
  let simulated = v "fault_sim.faults_done" and simulated_total = v "fault_sim.faults_total" in
  let judged = v "coverage.judged" and judged_total = v "coverage.judged_total" in
  let detected = v "coverage.detected" in
  let eta =
    match Progress.eta_s ~done_:simulated ~total:simulated_total ~elapsed_s with
    | Some s -> " | eta " ^ Progress.pp_duration s
    | None -> ""
  in
  let coverage = if judged > 0.0 then 100.0 *. detected /. judged else 0.0 in
  Printf.sprintf "faultsim: sim %.0f/%.0f classes | judged %.0f/%.0f | coverage %.1f%% | %s%s"
    simulated simulated_total judged judged_total coverage
    (Progress.pp_duration elapsed_s) eta

let faultsim_cmd =
  compute_cmd Serve_protocol.Faultsim ~render:render_faultsim
    ~doc:"Spectral stuck-at fault simulation of the FIR filter"

(* ---- montecarlo ---- *)

let render_montecarlo ~elapsed_s =
  let v name = Progress.value (Progress.cell name) in
  let done_ = v "monte_carlo.trials" and total = v "monte_carlo.trials_total" in
  let eta =
    match Progress.eta_s ~done_ ~total ~elapsed_s with
    | Some s -> " | eta " ^ Progress.pp_duration s
    | None -> ""
  in
  Printf.sprintf "montecarlo: %.0f/%.0f trials (%s) | %s%s" done_ total
    (Texttable.cell_pct ~decimals:0 (if total > 0.0 then done_ /. total else 0.0))
    (Progress.pp_duration elapsed_s) eta

(* The Figure 4 error model at CLI scale.  Trials run on the domain pool
   with one pre-split generator stream per trial, so the distribution is
   bit-identical at every pool size. *)
let montecarlo_cmd =
  compute_cmd Serve_protocol.Montecarlo ~render:render_montecarlo
    ~doc:"Monte-Carlo de-embedding error study for the mixer IIP3 (Figure 4 model)"

(* ---- trace: offline analysis of saved telemetry ---- *)

type trace_action =
  | Trace_summary
  | Trace_utilization
  | Trace_critical_path
  | Trace_flamegraph
  | Trace_chrome

let run_trace action file out_file =
  let text =
    try In_channel.with_open_bin file In_channel.input_all
    with Sys_error msg -> failwith ("trace: " ^ msg)
  in
  let render f = Result.map f (Trace.parse text) in
  let result =
    match action with
    | Trace_summary -> render Trace.summary
    | Trace_utilization -> render Trace.utilization
    | Trace_critical_path -> render Trace.critical_path
    | Trace_flamegraph -> render Trace.to_folded
    | Trace_chrome -> Trace.to_chrome text
  in
  match result with
  | Error msg -> failwith (Printf.sprintf "trace: %s: %s" file msg)
  | Ok output ->
    (match out_file with
    | None -> print_string output
    | Some out ->
      Out_channel.with_open_text out (fun oc -> output_string oc output);
      Format.eprintf "trace: output written to %s@." out)

let trace_cmd =
  let open Cmdliner in
  let action =
    Arg.(required
         & pos 0
             (some
                (enum
                   [ ("summary", Trace_summary);
                     ("utilization", Trace_utilization);
                     ("critical-path", Trace_critical_path);
                     ("flamegraph", Trace_flamegraph);
                     ("chrome", Trace_chrome) ]))
             None
         & info [] ~docv:"ACTION"
             ~doc:"$(b,summary) (every table of the profile), $(b,utilization) (per-slot \
                   occupancy and Gantt), $(b,critical-path) (hottest chain), \
                   $(b,flamegraph) (collapsed stacks for flamegraph.pl / inferno / \
                   speedscope) or $(b,chrome) (Chrome trace_event JSON for \
                   chrome://tracing or Perfetto).")
  in
  let file =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"TRACE"
             ~doc:"Saved trace: the JSONL event stream of $(b,--events) or \
                   $(b,msoc client --trace-out).")
  in
  let out_file =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the result to $(docv).")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Analyse a saved telemetry trace offline")
    (code0 Term.(const run_trace $ action $ file $ out_file))

(* ---- spectrum ---- *)

let run_spectrum tel level_dbm seed =
  with_telemetry tel ~command:"spectrum" @@ fun () ->
  let path = Path.default_receiver () in
  let fs = path.Path.ctx.Context.sim_rate_hz in
  let adc_rate = Path.adc_rate_hz path in
  let n_adc = 4096 in
  let n_sim = n_adc * Path.decimation path in
  let eng = Path.engine path (Path.nominal_part path) ~seed ~samples:n_sim in
  let f1 = Tone.coherent_frequency ~sample_rate:adc_rate ~samples:n_adc ~target:90e3 in
  let f2 = Tone.coherent_frequency ~sample_rate:adc_rate ~samples:n_adc ~target:110e3 in
  let amplitude = Units.vpeak_of_dbm level_dbm in
  let input =
    Tone.synthesize ~sample_rate:fs ~samples:n_sim
      [ Tone.component ~freq:(1e6 +. f1) ~amplitude ();
        Tone.component ~freq:(1e6 +. f2) ~amplitude () ]
  in
  let volts = Path.run_volts eng input in
  let sp = Spectrum.analyze ~sample_rate:adc_rate volts in
  let db x = 10.0 *. Float.log10 x in
  let p1 = Spectrum.tone_power sp ~freq:f1 in
  let im3_lo, im3_hi = Metrics.intermod3_products ~f1 ~f2 in
  let snr =
    Metrics.snr_multi_db sp ~signals:[ f1; f2 ] ~exclude:[ im3_lo; im3_hi; 300e3; 200e3; 20e3 ] ()
  in
  Format.printf "two-tone at %.1f dBm/tone through the receiver (seed %d):@." level_dbm seed;
  Format.printf "  IF tone power : %.2f dBm@." (Units.dbm_of_vpeak (sqrt (2.0 *. p1)));
  Format.printf "  IM3 (low/high): %.1f / %.1f dBc@."
    (db (Spectrum.tone_power sp ~freq:im3_lo) -. db p1)
    (db (Spectrum.tone_power sp ~freq:im3_hi) -. db p1);
  Format.printf "  SNR           : %.1f dB@." snr;
  let stim =
    Msoc_signal.Attr.two_tone ~noise_dbm:(Context.thermal_noise_dbm path.Path.ctx)
      ~f1_hz:(1e6 +. f1) ~f2_hz:(1e6 +. f2) ~power_dbm:level_dbm ()
  in
  let predicted = Msoc_signal.Attr.snr_db (Path.at_filter_input path stim) in
  Format.printf "  predicted SNR : %a dB (attribute domain)@." Msoc_util.Interval.pp predicted;
  (* Median-bin noise floor averaged over independently seeded captures,
     analysed across the domain pool (deterministic for any pool size). *)
  let captures = 4 in
  let pool = Msoc_util.Pool.get_default () in
  let signals =
    Msoc_util.Pool.parallel_init pool captures (fun i ->
        let eng = Path.engine path (Path.nominal_part path) ~seed:(seed + 1 + i) ~samples:n_sim in
        Path.run_volts eng input)
  in
  let spectra = Spectrum.analyze_many ~pool ~sample_rate:adc_rate signals in
  let floor_db =
    Array.fold_left
      (fun acc sp -> acc +. Spectrum.noise_floor_db sp ~exclude:(fun _ -> false))
      0.0 spectra
    /. float_of_int captures
  in
  Format.printf "  noise floor   : %.1f dB/bin (median, %d pooled captures)@." floor_db captures

let spectrum_cmd =
  let open Cmdliner in
  let level =
    Arg.(value & opt float (-27.0) & info [ "level" ] ~doc:"Per-tone input level, dBm.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Noise seed.") in
  Cmd.v (Cmd.info "spectrum" ~doc:"Simulate the receiver and report its spectrum metrics")
    (code0 Term.(const run_spectrum $ telemetry_term $ level $ seed))

(* ---- measure ---- *)

let measure_cmd =
  compute_cmd Serve_protocol.Measure ~doc:"Run the virtual tester against a manufactured part"

(* ---- schedule: whole-SOC test-time minimization ---- *)

let list_socs_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "list-socs" ] ~doc:"List the registered SOC fixtures and exit.")

let print_socs () =
  let t = Texttable.create ~headers:[ "SOC"; "Cores" ] in
  List.iter (fun (name, summary) -> Texttable.add_row t [ name; summary ]) Soc.summaries;
  Texttable.print t

let schedule_cmd =
  compute_cmd Serve_protocol.Schedule
    ~doc:"Pack a whole SOC's synthesized tests under its test-bus and power constraints \
          and minimize the total test time (greedy baseline plus pooled \
          simulated-annealing refinement)"
    ~listing:
      ( list_socs_arg,
        print_socs,
        "Record the per-core synthesis audit trail (per-parameter provenance including the \
         derived application cost), write it as JSON to $(docv) and print the text report." )

(* ---- netlist ---- *)

let run_netlist tel taps input_bits coeff_bits direct out_file =
  with_telemetry tel ~command:"netlist" @@ fun () ->
  let design = Msoc_dsp.Fir.lowpass ~taps ~cutoff:0.12 () in
  let codes, scale = Msoc_dsp.Fir.quantize design.Msoc_dsp.Fir.taps ~bits:coeff_bits in
  let architecture =
    if direct then Msoc_netlist.Fir_netlist.Direct else Msoc_netlist.Fir_netlist.Transposed
  in
  let fir =
    Msoc_netlist.Fir_netlist.create ~coeffs:codes ~width_in:input_bits ~scale ~architecture ()
  in
  let circuit = fir.Msoc_netlist.Fir_netlist.circuit in
  Format.printf "%a@." Msoc_netlist.Netlist.pp_stats circuit;
  Format.printf "collapsed stuck-at faults: %d@."
    (Array.length
       (Msoc_netlist.Fault.collapse circuit (Msoc_netlist.Fault.universe circuit)));
  match out_file with
  | None -> ()
  | Some file ->
    Msoc_netlist.Netlist_io.save file circuit;
    Format.printf "netlist written to %s@." file

let netlist_cmd =
  let open Cmdliner in
  let taps = Arg.(value & opt int 13 & info [ "taps" ] ~doc:"FIR tap count.") in
  let input_bits = Arg.(value & opt int 12 & info [ "input-bits" ] ~doc:"Input width.") in
  let coeff_bits = Arg.(value & opt int 8 & info [ "coeff-bits" ] ~doc:"Coefficient width.") in
  let direct =
    Arg.(value & flag & info [ "direct" ] ~doc:"Direct-form architecture (default transposed).")
  in
  let out_file =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Dump the netlist in the text format.")
  in
  Cmd.v (Cmd.info "netlist" ~doc:"Synthesise a gate-level filter and optionally dump it")
    (code0
       Term.(const run_netlist $ telemetry_term $ taps $ input_bits $ coeff_bits $ direct
             $ out_file))

(* ---- bench-diff ---- *)

let run_bench_diff tel old_file new_file tolerance =
  with_telemetry tel ~command:"bench-diff" @@ fun () ->
  let load file =
    match Msoc_obs.Report.read file with
    | Ok r -> r
    | Error msg -> failwith (Printf.sprintf "%s: %s" file msg)
  in
  let old_report = load old_file in
  let new_report = load new_file in
  Format.printf "bench-diff: %s (rev %s, %s) -> %s (rev %s, %s), tolerance %.0f%%@.@."
    old_file old_report.Msoc_obs.Report.meta.Msoc_obs.Report.git_rev
    old_report.Msoc_obs.Report.meta.Msoc_obs.Report.mode new_file
    new_report.Msoc_obs.Report.meta.Msoc_obs.Report.git_rev
    new_report.Msoc_obs.Report.meta.Msoc_obs.Report.mode tolerance;
  let d =
    Msoc_stat.Bench_diff.diff ~tolerance_pct:tolerance ~old_report ~new_report ()
  in
  print_string (Msoc_stat.Bench_diff.render d);
  if Msoc_stat.Bench_diff.gate_failed d then 3 else 0

let bench_diff_cmd =
  let open Cmdliner in
  let old_file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD.json"
         ~doc:"Baseline bench report.")
  in
  let new_file =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW.json"
         ~doc:"Candidate bench report.")
  in
  let tolerance =
    Arg.(value & opt float 5.0
         & info [ "tolerance" ] ~docv:"PCT"
             ~doc:"Allowed slowdown in percent before a timing counts as regressed \
                   (the verdict also discounts the 95% confidence interval of the \
                   delta, so noisy kernels need a clear signal to fail).")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:"Compare two bench reports ($(b,BENCH_*.json)) and gate on regressions")
    Term.(const run_bench_diff $ telemetry_term $ old_file $ new_file $ tolerance)

(* ---- serve: the long-running synthesis daemon ---- *)

let socket_arg =
  Cmdliner.Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path of the daemon.")

let run_serve socket queue_capacity executors cache_size access_log metrics_out =
  if queue_capacity < 1 then failwith "serve: --queue must be at least 1";
  (match executors with
  | Some k when k < 1 -> failwith "serve: --executors must be at least 1"
  | _ -> ());
  if cache_size < 0 then failwith "serve: --cache-size must be at least 0";
  set_build_info ();
  let cfg =
    Serve_server.config ~queue_capacity ?executors ~cache_size ?access_log
      ?metrics_out socket
  in
  let server = Serve_server.create cfg in
  let on_signal _ = Serve_server.request_stop server in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Format.eprintf
    "serve: listening on %s (queue capacity %d, executors %d, cache %d, pool %d)@."
    socket queue_capacity
    (Serve_server.executors server)
    cache_size
    (Msoc_util.Pool.default_size ());
  Serve_server.run server

let serve_cmd =
  let open Cmdliner in
  let queue =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Bounded work-queue capacity; requests beyond it are rejected with a \
                   structured $(b,overloaded) response instead of waiting.")
  in
  let executors =
    Arg.(value & opt (some int) None
         & info [ "executors" ] ~docv:"K"
             ~doc:"Executor domains popping the shared work queue concurrently. \
                   Defaults to the domain pool size.  Responses are byte-identical \
                   at every executor count.")
  in
  let cache_size =
    Arg.(value & opt int 256
         & info [ "cache-size" ] ~docv:"N"
             ~doc:"Synthesis result cache capacity (LRU entries keyed by the \
                   canonical request identity); $(b,0) disables the cache.  Cached \
                   replies are byte-identical to cold ones.")
  in
  let access_log =
    Arg.(value & opt (some string) None
         & info [ "access-log" ] ~docv:"FILE"
             ~doc:"Stream one JSON line per request (trace id, verb, status, queue-wait \
                   ns, service ns, pool size, executor slot) to $(docv).")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write the final Prometheus metrics snapshot to $(docv) during clean \
                   shutdown (SIGTERM/SIGINT).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the synthesis daemon: plan/measure/faultsim/montecarlo/schedule over \
             a Unix socket, with multi-executor scheduling, a single-flight synthesis \
             result cache (a duplicate of a running request shares its execution), \
             per-request traces, Prometheus metrics and a structured access log")
    (code0
       Term.(const run_serve $ socket_arg $ queue $ executors $ cache_size
             $ access_log $ metrics_out))

(* ---- client: one request against a running daemon ---- *)

let verb_conv =
  let parse s =
    match Serve_protocol.verb_of_name s with
    | Some v -> Ok v
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown verb %S (known: %s)" s
              (String.concat ", "
                 (List.map Serve_protocol.verb_name Serve_protocol.all_verbs))))
  in
  Cmdliner.Arg.conv
    (parse, fun ppf v -> Format.pp_print_string ppf (Serve_protocol.verb_name v))

(* Load mode ([--repeat]/[--concurrency] beyond 1): every worker domain
   opens its own connection and sends its [repeat] requests back to
   back, so C workers keep C requests in flight — enough to exercise the
   daemon's multi-executor scheduling and single-flight cache from one
   client process.  Per-request latency is measured client-side
   (request sent -> response parsed) and summarized with the same
   nearest-rank percentiles the bench harness uses. *)
let run_client_load ~socket ~req ~repeat ~concurrency =
  let total = repeat * concurrency in
  let t0 = Unix.gettimeofday () in
  let worker () =
    Serve_client.with_connection ~socket_path:socket (fun c ->
        List.init repeat (fun _ ->
            let s0 = Unix.gettimeofday () in
            let answer = Serve_client.request c req in
            let elapsed_ms = (Unix.gettimeofday () -. s0) *. 1e3 in
            (answer, elapsed_ms)))
  in
  let per_worker =
    if concurrency = 1 then [ worker () ]
    else
      List.init (concurrency - 1) (fun _ -> Domain.spawn worker)
      |> fun spawned -> worker () :: List.map Domain.join spawned
  in
  let outcomes = List.concat per_worker in
  let wall_s = Unix.gettimeofday () -. t0 in
  let count pred = List.length (List.filter pred outcomes) in
  let ok = count (fun (a, _) -> match a with Ok r -> r.Serve_protocol.status = Serve_protocol.Ok_ | _ -> false) in
  let overloaded =
    count (fun (a, _) ->
        match a with Ok r -> r.Serve_protocol.status = Serve_protocol.Overloaded | _ -> false)
  in
  let failed =
    count (fun (a, _) ->
        match a with Ok r -> r.Serve_protocol.status = Serve_protocol.Failed | _ -> false)
  in
  let transport = count (fun (a, _) -> match a with Error _ -> true | _ -> false) in
  let lats = List.map snd outcomes |> Array.of_list in
  Array.sort compare lats;
  let nearest_rank p =
    if Array.length lats = 0 then 0.0
    else
      let n = Array.length lats in
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      lats.(max 0 (min (n - 1) (rank - 1)))
  in
  let mean =
    if Array.length lats = 0 then 0.0
    else Array.fold_left ( +. ) 0.0 lats /. float_of_int (Array.length lats)
  in
  Format.printf "%d request(s), %d worker(s) x %d@." total concurrency repeat;
  Format.printf "status: %d ok, %d overloaded, %d error, %d transport@." ok overloaded
    failed transport;
  Format.printf "latency ms: mean %.2f | p50 %.2f | p99 %.2f@." mean (nearest_rank 50.0)
    (nearest_rank 99.0);
  Format.printf "wall: %.2f s | throughput %.1f req/s@." wall_s
    (if wall_s > 0.0 then float_of_int total /. wall_s else 0.0);
  (* rejections under deliberate load are data, not failure; only a
     broken transport makes the load run itself fail *)
  if transport > 0 then 1 else 0

let run_client req socket repeat concurrency trace_out =
  if repeat < 1 then failwith "client: --repeat must be at least 1";
  if concurrency < 1 then failwith "client: --concurrency must be at least 1";
  let load_mode = repeat > 1 || concurrency > 1 in
  if load_mode && trace_out <> None then
    failwith
      "client: --trace-out writes one request's trace; it cannot be combined with --repeat \
       or --concurrency above 1";
  let req = { req with Serve_protocol.trace = trace_out <> None } in
  let unreachable e =
    failwith
      (Printf.sprintf "client: cannot reach daemon at %s: %s" socket
         (Unix.error_message e))
  in
  if load_mode then
    try run_client_load ~socket ~req ~repeat ~concurrency
    with Unix.Unix_error (e, _, _) -> unreachable e
  else begin
    let answer =
      try Serve_client.with_connection ~socket_path:socket (fun c -> Serve_client.request c req)
      with Unix.Unix_error (e, _, _) -> unreachable e
    in
    match answer with
    | Error msg -> failwith ("client: " ^ msg)
    | Ok resp ->
      (match (resp.Serve_protocol.trace_export, trace_out) with
      | Some text, Some file ->
        let oc = open_out file in
        output_string oc text;
        close_out oc;
        Format.eprintf "client: per-request trace (%s) written to %s@."
          resp.Serve_protocol.trace_id file
      | _ -> ());
      (match resp.Serve_protocol.status with
      | Serve_protocol.Ok_ ->
        print_string resp.Serve_protocol.body;
        0
      | Serve_protocol.Overloaded ->
        Format.eprintf "msoc client: overloaded: %s@." resp.Serve_protocol.body;
        1
      | Serve_protocol.Failed ->
        Format.eprintf "msoc client: error: %s@." resp.Serve_protocol.body;
        1)
  end

let client_cmd =
  let open Cmdliner in
  let verb =
    Arg.(required & pos 0 (some verb_conv) None
         & info [] ~docv:"VERB"
             ~doc:"$(b,plan), $(b,measure), $(b,faultsim), $(b,montecarlo), \
                   $(b,schedule), $(b,metrics), $(b,ping) or $(b,sleep).")
  in
  let repeat =
    Arg.(value & opt int 1
         & info [ "repeat" ] ~docv:"N"
             ~doc:"Load mode: send the request $(docv) times per worker and print a \
                   latency/status summary instead of the body.")
  in
  let concurrency =
    Arg.(value & opt int 1
         & info [ "concurrency" ] ~docv:"C"
             ~doc:"Load mode: $(docv) worker domains, each with its own connection \
                   sending its $(b,--repeat) share concurrently.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Ask the daemon for this request's trace and write it to $(docv), as \
                   the JSONL event stream $(b,msoc trace) reads.  Not in load mode.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running msoc daemon and print the response body")
    Term.(const run_client
          $ (const (fun verb set -> set (Serve_protocol.request verb))
            $ verb $ flags_term Serve_protocol.fields)
          $ socket_arg $ repeat $ concurrency $ trace_out)

(* ---- entry point: exit-code discipline ---- *)

(* Cmdliner's stock numbering (124/125) is replaced by the documented
   contract: 0 ok, 1 runtime failure, 2 usage error, 3 regression gate. *)
let () =
  let open Cmdliner in
  let doc = "Test synthesis for mixed-signal SOC paths (DATE 2000 reproduction)" in
  let exits =
    [ Cmd.Exit.info 0 ~doc:"on success.";
      Cmd.Exit.info 1 ~doc:"on a runtime failure (unreadable input, I/O error).";
      Cmd.Exit.info 2 ~doc:"on a command-line usage error.";
      Cmd.Exit.info 3
        ~doc:"when $(b,bench-diff) finds a regressed or missing benchmark." ]
  in
  let group =
    Cmd.group (Cmd.info "msoc" ~doc ~exits)
      [ plan_cmd; coverage_cmd; faultsim_cmd; montecarlo_cmd; spectrum_cmd; measure_cmd;
        schedule_cmd; netlist_cmd; trace_cmd; bench_diff_cmd; serve_cmd; client_cmd ]
  in
  let code =
    match (try Ok (Cmd.eval_value ~catch:false group) with e -> Error e) with
    | Error e ->
      let msg = match e with Failure m -> m | e -> Printexc.to_string e in
      Format.eprintf "msoc: error: %s@." msg;
      1
    | Ok (Error (`Parse | `Term)) -> 2
    | Ok (Error `Exn) -> 1
    | Ok (Ok (`Help | `Version)) -> 0
    | Ok (Ok (`Ok code)) -> code
  in
  exit code
