(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (DATE 2000) plus the prose coverage numbers of §5, then times
   the computational kernels with Bechamel.

   Run with:   dune exec bench/main.exe            (full, ~2 minutes)
               dune exec bench/main.exe -- quick   (reduced sizes)

   Paper-vs-measured comparisons are summarised at the end of each section
   and recorded in EXPERIMENTS.md. *)

module Path = Msoc_analog.Path
module Context = Msoc_analog.Context
module Param = Msoc_analog.Param
module Lpf = Msoc_analog.Lpf
module Units = Msoc_util.Units
module Prng = Msoc_util.Prng
module Pool = Msoc_util.Pool
module I = Msoc_util.Interval
module Texttable = Msoc_util.Texttable
module Distribution = Msoc_stat.Distribution
module Monte_carlo = Msoc_stat.Monte_carlo
module Tone = Msoc_dsp.Tone
module Spectrum = Msoc_dsp.Spectrum
module Metrics = Msoc_dsp.Metrics
module Fir_netlist = Msoc_netlist.Fir_netlist
module Netlist = Msoc_netlist.Netlist
module Fault = Msoc_netlist.Fault
module Fault_sim = Msoc_netlist.Fault_sim
module Logic_sim = Msoc_netlist.Logic_sim
module Atpg_lite = Msoc_netlist.Atpg_lite
module Attr = Msoc_signal.Attr
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

(* Stage-parameter accessors over the generic default path; the concrete
   params records are only needed for fields that carry no tolerance
   (clock rate, bit width). *)
let path_param stage name = Path.param path ~stage ~name

let lpf_params =
  match (Option.get (Path.find_stage path "LPF")).Msoc_analog.Stage.block with
  | Msoc_analog.Stage.Lpf p -> p
  | _ -> assert false

let adc_params =
  match (Path.digitizer path).Msoc_analog.Stage.block with
  | Msoc_analog.Stage.Adc { adc; _ } -> adc
  | _ -> assert false

let lo_freq_hz = Option.get (Path.lo_freq_hz path)
let decim = Path.decimation path

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
(* Figure 6: the experimental set-up, with the attribute propagation   *)
(* trace of the standard two-tone stimulus.                            *)
(* ------------------------------------------------------------------ *)

let figure6 () =
  section "Figure 6 — experimental set-up (signal path + attribute trace)";
  Format.printf "Amp -> Mixer (LO) -> LPF -> ADC -> 13-tap digital filter@.";
  Format.printf "  LO %.1f MHz, LPF fc %.0f kHz (clock %.1f MHz), ADC %d bit @ %.0f kHz@."
    (lo_freq_hz /. 1e6)
    ((path_param "LPF" "cutoff_hz").Param.nominal /. 1e3)
    (lpf_params.Lpf.clock_hz /. 1e6)
    adc_params.Msoc_analog.Adc.bits
    (Path.adc_rate_hz path /. 1e3);
  let stim =
    Attr.two_tone ~noise_dbm:(Context.thermal_noise_dbm path.Path.ctx) ~f1_hz:1.09e6
      ~f2_hz:1.11e6 ~power_dbm:Propagate.standard_test_level_dbm ()
  in
  let t =
    Texttable.create ~headers:[ "After"; "Tone 1"; "Accuracy"; "Noise (dBm)"; "Spurs" ]
  in
  List.iter
    (fun (name, signal) ->
      match signal.Attr.tones with
      | tone :: _ ->
        Texttable.add_row t
          [ name;
            Printf.sprintf "%.4g Hz @ %.1f dBm" (I.mid tone.Attr.freq_hz)
              (I.mid tone.Attr.power_dbm);
            Printf.sprintf "±%.0f Hz, ±%.1f dB" (Attr.freq_accuracy_hz tone)
              (Attr.power_accuracy_db tone);
            Printf.sprintf "%.1f" signal.Attr.noise_dbm;
            string_of_int (List.length signal.Attr.spurs) ]
      | [] -> ())
    (Path.stages path stim);
  Texttable.print t

(* ------------------------------------------------------------------ *)
(* Table 1: parameters to be tested.                                   *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1 — set of parameters to be tested";
  let t = Texttable.create ~headers:[ "Block"; "Parameters" ] in
  List.iter
    (fun (block, kinds) -> Texttable.add_row t [ block; String.concat ", " kinds ])
    (Plan.table1 (Plan.synthesize path));
  Texttable.print t;
  Format.printf
    "Paper Table 1 lists: Amp {Gain, IIP3, DC Offset, 3rd Harmonic}; Mixer {Gain,@.\
     IIP3, LO Isolation, NF, P1dB}; LO {Freq Error, Phase Noise}; LPF {Gp, Gs, fc,@.\
     DR}; ADC {Offset, INL, DNL, NF, DR} — reproduced exactly.@."

(* ------------------------------------------------------------------ *)
(* Figure 3: gain-error masking caught only by boundary checks.        *)
(* ------------------------------------------------------------------ *)

let measure_if_gain engine ~fs ~adc_rate ~n_adc ~f_if ~level_dbm =
  let n_sim = n_adc * decim in
  let input =
    Tone.synthesize ~sample_rate:fs ~samples:n_sim
      [ Tone.component ~freq:(1e6 +. f_if) ~amplitude:(Units.vpeak_of_dbm level_dbm) () ]
  in
  let volts = Path.run_volts engine input in
  let sp = Spectrum.analyze ~sample_rate:adc_rate volts in
  let out_dbm = Units.dbm_of_vpeak (sqrt (2.0 *. Spectrum.tone_power sp ~freq:f_if)) in
  (* SINAD counts clipping harmonics as degradation, which is the point of
     the saturation check. *)
  ((out_dbm -. level_dbm), (Metrics.analyze sp).Metrics.sinad_db)

let figure3 () =
  section "Figure 3 — composed-gain masking and its boundary-condition check";
  (* A part whose amp gain is 2.5 dB high (beyond its ±1 dB tolerance) while
     the mixer and LPF gains sit at their low corners: the composite gain is
     inside the composite tolerance, so the mid-level test passes — but the
     high-amplitude check drives the mixer into saturation. *)
  let masked_part =
    let part = Path.nominal_part path in
    let part = Path.with_value path part ~stage:"Amp" ~name:"gain_db" 24.5 in
    let part = Path.with_value path part ~stage:"Mixer" ~name:"gain_db" 7.0 in
    Path.with_value path part ~stage:"LPF" ~name:"gain_db" (-2.8)
  in
  let fs = path.Path.ctx.Context.sim_rate_hz in
  let adc_rate = Path.adc_rate_hz path in
  let n_adc = if quick then 1024 else 4096 in
  let f_if = Tone.coherent_frequency ~sample_rate:adc_rate ~samples:n_adc ~target:100e3 in
  let t =
    Texttable.create
      ~headers:[ "Part"; "Check"; "Level (dBm)"; "Path gain (dB)"; "Verdict" ]
  in
  let gain_spec = Path.path_gain_interval_db path in
  List.iter
    (fun (label, part) ->
      let checks = Compose.boundary_checks path ~test_level_dbm:Propagate.standard_test_level_dbm in
      (* one engine per part: every measurement replays its noise *)
      let engine = Path.engine path part ~seed:17 ~samples:(n_adc * decim) in
      (* The mid-range gain of this very part is the reference the
         boundary measurements are compared against (self-referencing, as
         the adaptive methodology prescribes). *)
      let mid_gain =
        fst (measure_if_gain engine ~fs ~adc_rate ~n_adc ~f_if ~level_dbm:Propagate.standard_test_level_dbm)
      in
      List.iter
        (fun (check : Compose.boundary_check) ->
          let gain, _ =
            measure_if_gain engine ~fs ~adc_rate ~n_adc ~f_if
              ~level_dbm:check.Compose.stimulus_dbm
          in
          let name, verdict =
            match check.Compose.kind with
            | Compose.Mid_gain ->
              ( "mid-range gain",
                if I.contains gain_spec gain then "pass" else "FAIL (composite gain)" )
            | Compose.Saturation ->
              (* saturation shows as >1 dB compression vs the mid gain *)
              ( "max amplitude",
                if mid_gain -. gain <= 1.0 then "pass" else "FAIL (compression)" )
            | Compose.Signal_loss ->
              ( "min amplitude",
                if Float.abs (gain -. mid_gain) <= 3.0 then "pass"
                else "FAIL (signal lost)" )
          in
          Texttable.add_row t
            [ label;
              name;
              Printf.sprintf "%.1f" check.Compose.stimulus_dbm;
              Printf.sprintf "%.2f" gain;
              verdict ])
        checks;
      Texttable.add_separator t)
    [ ("nominal", Path.nominal_part path); ("masked +4.5 dB amp", masked_part) ];
  Texttable.print t;
  Format.printf
    "The masked part's composite gain sits inside the composite tolerance, so@.\
     the mid-range measurement passes — only the max-amplitude boundary check@.\
     exposes the internally saturating mixer (Fig. 3).@."

(* ------------------------------------------------------------------ *)
(* Figure 4: adaptive accuracy improvement for the mixer IIP3.         *)
(* ------------------------------------------------------------------ *)

let figure4 () =
  section "Figure 4 — IIP3 de-embedding accuracy: nominal gains vs adaptive";
  let t =
    Texttable.create
      ~headers:
        [ "Method"; "Formula"; "Budget (worst)"; "Empirical RMS err"; "Empirical max err" ]
  in
  let iip3 = path_param "Mixer" "iip3_dbm" in
  let amp_gain = path_param "Amp" "gain_db" in
  let mixer_gain = path_param "Mixer" "gain_db" in
  let lpf_gain = path_param "LPF" "gain_db" in
  let trials = if quick then 5000 else 50000 in
  let pool = Pool.get_default () in
  List.iter
    (fun strategy ->
      let m = Propagate.mixer_iip3 path ~strategy in
      (* Empirical: sample a part; the observable (3X - Y)/2 equals
         IIP3_true + G_mixer + G_lpf + G_amp... all actual; each method
         subtracts its assumed terms.  The trial loop runs on the domain
         pool with one pre-split generator stream per trial, so the result
         is bit-identical for every pool size. *)
      let errs =
        Monte_carlo.sample_array_pooled ~pool ~trials ~rng:(Prng.create 31415)
          ~f:(fun g _ ->
            let actual_amp = Param.sample amp_gain g in
            let actual_mixer = Param.sample mixer_gain g in
            let actual_lpf = Param.sample lpf_gain g in
            let true_iip3 = Param.sample iip3 g in
            (* observable at the primary output, input-referred to the
               primary input: *)
            let observable = true_iip3 +. actual_mixer +. actual_lpf in
            let estimate =
              match strategy with
              | Propagate.Nominal_gains ->
                observable -. mixer_gain.Param.nominal -. lpf_gain.Param.nominal
              | Propagate.Adaptive ->
                (* path gain measured exactly; G_amp assumed nominal *)
                let path_gain = actual_amp +. actual_mixer +. actual_lpf in
                observable -. path_gain +. amp_gain.Param.nominal
            in
            estimate -. true_iip3)
          ()
      in
      let rms = Msoc_stat.Describe.rms errs in
      let worst = Msoc_util.Floatx.max_abs errs in
      let sname = Propagate.strategy_name strategy in
      Report.add_scalar report ~section:"figure4" ~name:(sname ^ " budget worst")
        ~unit_label:"dB" (Propagate.err m);
      Report.add_scalar report ~section:"figure4" ~name:(sname ^ " empirical rms")
        ~unit_label:"dB" rms;
      Texttable.add_row t
        [ (match strategy with
          | Propagate.Nominal_gains -> "nominal gains"
          | Propagate.Adaptive -> "adaptive (path gain)");
          m.Propagate.formula;
          Printf.sprintf "±%.2f dB" (Propagate.err m);
          Printf.sprintf "%.2f dB" rms;
          Printf.sprintf "%.2f dB" worst ])
    [ Propagate.Nominal_gains; Propagate.Adaptive ];
  Texttable.print t;
  Format.printf
    "Paper: converting the computation to use the measured path gain leaves only@.\
     Block A's (the amp's) tolerance in the error — reproduced: the adaptive@.\
     budget and empirical error are those of G_amp alone.@."

(* ------------------------------------------------------------------ *)
(* Waveform-level validation of the measurement procedures: run the    *)
(* virtual tester against sampled parts and compare every result with  *)
(* the part's true parameter value and the predicted budget.           *)
(* ------------------------------------------------------------------ *)

let tester_validation () =
  section "Virtual tester — measured vs true parameter values, budget check";
  let parts = if quick then 2 else 4 in
  let pool = Pool.get_default () in
  List.iter
    (fun strategy ->
      let label =
        match strategy with
        | Propagate.Nominal_gains -> "nominal-gains de-embedding"
        | Propagate.Adaptive -> "adaptive de-embedding"
      in
      Format.printf "@.--- %s ---@." label;
      let t =
        Texttable.create
          ~headers:[ "Parameter"; "RMS error"; "Max |error|"; "Budget"; "Within budget" ]
      in
      (* Parts sampled serially from a fresh generator, part [i] validated
         with session seed [1000 + i] — exactly the serial sweep this
         replaced, whatever the pool size. *)
      let validated =
        Measure.validate_population ~pool ~seed:1000 path ~parts ~strategy
          ~rng:(Prng.create 987654)
      in
      let table = Hashtbl.create 8 in
      Array.iter
        (fun (_part, validations) ->
          List.iter
            (fun v ->
              let previous =
                match Hashtbl.find_opt table v.Measure.parameter with
                | Some l -> l
                | None -> []
              in
              Hashtbl.replace table v.Measure.parameter (v :: previous))
            validations)
        validated;
      List.iter
        (fun parameter ->
          match Hashtbl.find_opt table parameter with
          | None -> ()
          | Some vs ->
            let errs = Array.of_list (List.map (fun v -> v.Measure.error) vs) in
            let budget = (List.hd vs).Measure.budget in
            let within =
              List.length (List.filter (fun v -> Float.abs v.Measure.error <= budget) vs)
            in
            Texttable.add_row t
              [ parameter;
                Printf.sprintf "%.3g" (Msoc_stat.Describe.rms errs);
                Printf.sprintf "%.3g" (Msoc_util.Floatx.max_abs errs);
                Printf.sprintf "±%.3g" budget;
                Printf.sprintf "%d/%d" within (List.length vs) ])
        [ "path gain (dB)"; "mixer IIP3 (dBm)"; "mixer P1dB (dBm)"; "LPF cutoff (Hz)";
          "LO frequency error (Hz)" ];
      Texttable.print t)
    [ Propagate.Nominal_gains; Propagate.Adaptive ];
  Format.printf
    "Every synthesised measurement is executed on the waveform engine (stimulus@.     at the primary input, spectrum read at the digitised output) and lands@.     within its predicted worst-case budget; the adaptive strategy's errors are@.     strictly smaller — the paper's central claim, verified end to end.@."

(* ------------------------------------------------------------------ *)
(* Figure 2 + Figure 5: parameter distribution, loss regions, and the  *)
(* FCL/YL trade-off against the threshold.                             *)
(* ------------------------------------------------------------------ *)

let figure2_and_5 () =
  section "Figures 2 & 5 — parameter distribution, FCL/YL regions, threshold trade-off";
  let m = Propagate.mixer_iip3 path ~strategy:Propagate.Adaptive in
  let err = Propagate.err m in
  let iip3 = path_param "Mixer" "iip3_dbm" in
  let population =
    Coverage.defective_population ~nominal:iip3.Param.nominal ~tol:iip3.Param.tol
  in
  let bound = m.Propagate.spec.Spec.bound in
  (* Fig. 2: the density with the min/nom/max markers *)
  Format.printf "IIP3 population: %a; spec %a; measurement error ±%.2f dB@.@."
    Distribution.pp population Spec.pp_bound bound err;
  let t2 = Texttable.create ~headers:[ "IIP3 (dBm)"; "pdf"; "region" ] in
  let xs = Msoc_util.Floatx.linspace (iip3.Param.nominal -. 4.5) (iip3.Param.nominal +. 4.5) 13 in
  Array.iter
    (fun x ->
      let region =
        if Spec.passes bound x then "good"
        else if Spec.passes bound (x +. err) then "faulty, may escape (FC loss)"
        else "faulty, always caught"
      in
      Texttable.add_row t2
        [ Printf.sprintf "%.2f" x;
          Printf.sprintf "%.4f" (Distribution.pdf population x);
          region ])
    xs;
  Texttable.print t2;
  (* Fig. 5: trade-off sweep *)
  Format.printf "@.Threshold trade-off (Fig. 5):@.";
  let t5 = Texttable.create ~headers:[ "Shift (dB)"; "FCL"; "YL" ] in
  Array.iter
    (fun (shift, l) ->
      Texttable.add_row t5
        [ Printf.sprintf "%+.2f" shift;
          Texttable.cell_pct l.Coverage.fcl;
          Texttable.cell_pct l.Coverage.yl ])
    (Coverage.fcl_yl_tradeoff ~population ~bound ~error:(Coverage.Uniform_err err)
       ~shifts:(Msoc_util.Floatx.linspace (-.err) err 9));
  Texttable.print t5

(* ------------------------------------------------------------------ *)
(* Specification back-propagation: system requirements to block bounds *)
(* (the origin of Table 1's "partitioned" parameters).                 *)
(* ------------------------------------------------------------------ *)

let backprop () =
  section "Specification back-propagation — system requirements to block bounds";
  let req = Backprop.default_requirements in
  let allocations = Backprop.allocate req path in
  let t = Texttable.create ~headers:[ "Block"; "Parameter"; "Allocated bound"; "Rationale" ] in
  List.iter
    (fun a ->
      Texttable.add_row t
        [ Spec.block_name a.Backprop.block;
          Spec.kind_name a.Backprop.kind;
          Format.asprintf "%a" Spec.pp_bound a.Backprop.bound;
          a.Backprop.rationale ])
    allocations;
  Texttable.print t;
  Format.printf "@.Worst-case verification of the allocation:@.";
  let v = Texttable.create ~headers:[ "Requirement"; "Required"; "Worst case"; "Verdict" ] in
  List.iter
    (fun check ->
      Texttable.add_row v
        [ check.Backprop.requirement;
          check.Backprop.required;
          check.Backprop.achieved_worst_case;
          (if check.Backprop.satisfied then "met" else "VIOLATED") ])
    (Backprop.verify req path allocations);
  Texttable.print v

(* ------------------------------------------------------------------ *)
(* Table 2: FCL and YL for P1dB, IIP3 and f_c at the three thresholds. *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2 — fault coverage and yield losses vs threshold choice";
  let rows =
    [ ("P1dB", Propagate.mixer_p1db path ~strategy:Propagate.Adaptive);
      ("IIP3", Propagate.mixer_iip3 path ~strategy:Propagate.Adaptive);
      ("f_c", Propagate.lpf_cutoff path ~strategy:Propagate.Nominal_gains) ]
  in
  let t =
    Texttable.create
      ~headers:
        [ "Param"; "Thr=Tol FCL"; "YL"; "Thr=Tol-Err FCL"; "YL"; "Thr=Tol+Err FCL"; "YL" ]
  in
  List.iter
    (fun (label, m) ->
      match Plan.population_of_spec path m.Propagate.spec with
      | None -> ()
      | Some population ->
        let err = Propagate.err m in
        (match
           Coverage.threshold_rows ~population ~bound:m.Propagate.spec.Spec.bound ~err
             ~error:(Coverage.Uniform_err err)
         with
        | [ (_, at_tol); (_, tight); (_, loose) ] ->
          (match label with
          | "IIP3" ->
            Report.add_comparison report ~section:"table2" ~name:"IIP3 FCL at Thr=Tol"
              ~paper:"8.5%" ~measured:(Texttable.cell_pct at_tol.Coverage.fcl)
          | "f_c" ->
            Report.add_comparison report ~section:"table2" ~name:"f_c FCL at Thr=Tol"
              ~paper:"6.1%" ~measured:(Texttable.cell_pct at_tol.Coverage.fcl)
          | _ -> ());
          Texttable.add_row t
            [ label;
              Texttable.cell_pct at_tol.Coverage.fcl;
              Texttable.cell_pct at_tol.Coverage.yl;
              Texttable.cell_pct tight.Coverage.fcl;
              Texttable.cell_pct tight.Coverage.yl;
              Texttable.cell_pct loose.Coverage.fcl;
              Texttable.cell_pct loose.Coverage.yl ]
        | _ -> ()))
    rows;
  Texttable.print t;
  Format.printf
    "Paper Table 2 (legible cells): IIP3 at Thr=Tol FCL 8.5%%; at Tol-Err FCL -> 0%%@.\
     with YL growing; at Tol+Err YL -> 0%% with FCL ~15%%; fc FCL 6.1%% at Tol.  The@.\
     zero-loss corners and the direction of every trade are reproduced; absolute@.\
     values depend on the (unpublished) tolerance-to-defect-spread ratio.@."

(* ------------------------------------------------------------------ *)
(* Figure 1: output spectra of the 16-tap filter, fault-free and with  *)
(* stuck-at faults in tap-2 multiplier / tap-5 adder / tap-7.          *)
(* ------------------------------------------------------------------ *)

let run_single_fault fir codes (fault : Fault.t option) =
  let sim = Logic_sim.create fir.Fir_netlist.circuit in
  (match fault with
  | Some f -> Logic_sim.inject sim ~node:f.Fault.node ~lane:0 ~stuck:f.Fault.stuck
  | None -> ());
  let ybus = Fir_netlist.output_bus fir in
  Array.map
    (fun x ->
      Fir_netlist.drive fir sim x;
      Logic_sim.eval sim;
      let y = Logic_sim.read_bus_lane sim ybus ~lane:0 in
      Logic_sim.tick sim;
      y)
    codes

let figure1 () =
  section "Figure 1 — 16-tap filter output spectra, fault-free and faulty";
  let config = { Digital_test.default_config with Digital_test.taps = 16 } in
  let fir = Digital_test.build config in
  Format.printf "filter: %a@.@." Netlist.pp_stats fir.Fir_netlist.circuit;
  let fs = 1e6 in
  let samples = if quick then 1024 else 2048 in
  let f1 = Digital_test.coherent_tone ~sample_rate:fs ~samples ~target:90e3 in
  let codes =
    Digital_test.ideal_codes config ~sample_rate:fs ~samples ~freqs:[ f1 ] ~amplitude_fs:0.9
  in
  let cases =
    [ ("fault-free", None);
      ("s-a-1 in tap-2 multiplier", Some (Fir_netlist.fault_site fir ~tap:2 ~role:Fir_netlist.Multiplier));
      ("s-a-1 in tap-5 adder", Some (Fir_netlist.fault_site fir ~tap:5 ~role:Fir_netlist.Adder));
      ("s-a-1 in tap-7 register", Some (Fir_netlist.fault_site fir ~tap:7 ~role:Fir_netlist.Register)) ]
  in
  let t =
    Texttable.create
      ~headers:[ "Case"; "Fundamental (dB)"; "Worst new spur (dB)"; "Floor (dB)"; "Spectrum (80 dB span)" ]
  in
  let reference = ref None in
  List.iter
    (fun (label, fault) ->
      let stream = run_single_fault fir codes fault in
      let sp = Digital_test.output_spectrum config fir ~sample_rate:fs stream in
      let nbins = Spectrum.bin_count sp in
      let fund_db = 10.0 *. Float.log10 (Spectrum.tone_power sp ~freq:f1) in
      (match fault with None -> reference := Some sp | Some _ -> ());
      (* worst bin that departs from the fault-free reference *)
      let worst_new = ref (-400.0) in
      (match (!reference, fault) with
      | Some ref_sp, Some _ ->
        for k = 1 to nbins - 1 do
          let d = Spectrum.power_db sp k in
          if d > Spectrum.power_db ref_sp k +. 6.0 then worst_new := Float.max !worst_new d
        done
      | _, None | None, _ -> ());
      let floor = Spectrum.noise_floor_db sp ~exclude:(fun k -> k = 0) in
      (* coarse ASCII spectrum *)
      let buckets = 24 in
      let art = Buffer.create buckets in
      for bucket = 0 to buckets - 1 do
        let lo = 1 + (bucket * (nbins - 1) / buckets) in
        let hi = ((bucket + 1) * (nbins - 1)) / buckets in
        let peak = ref (-400.0) in
        for k = lo to max lo hi do
          peak := Float.max !peak (Spectrum.power_db sp k)
        done;
        let level = int_of_float ((!peak -. fund_db +. 80.0) /. 16.0) in
        Buffer.add_string art [| " "; "."; ":"; "+"; "#" |].(max 0 (min 4 level))
      done;
      Texttable.add_row t
        [ label;
          Printf.sprintf "%.1f" fund_db;
          (if !worst_new > -399.0 then Printf.sprintf "%.1f" !worst_new else "-");
          Printf.sprintf "%.1f" floor;
          Buffer.contents art ])
    cases;
  Texttable.print t;
  Format.printf
    "As in the paper's Fig. 1: faults raise harmonics/periodic spikes well above@.\
     the fault-free floor, each fault with a distinct spectral signature.@."

(* ------------------------------------------------------------------ *)
(* §3/§5 prose — ideal-input coverage: 1-tone vs 2-tone (16 taps).     *)
(* ------------------------------------------------------------------ *)

let coverage_ideal () =
  section "Coverage (ideal inputs) — 1-tone vs 2-tone, 16-tap filter";
  let config = { Digital_test.default_config with Digital_test.taps = 16 } in
  let fir = Digital_test.build config in
  let faults = Digital_test.collapsed_faults fir in
  let fs = 1e6 in
  let samples = if quick then 1024 else 2048 in
  let f1 = Digital_test.coherent_tone ~sample_rate:fs ~samples ~target:90e3 in
  let f2 = Digital_test.coherent_tone ~sample_rate:fs ~samples ~target:110e3 in
  let t =
    Texttable.create
      ~headers:
        [ "Stimulus"; "Coverage (all faults)"; "Activated"; "Coverage (activatable)";
          "Paper" ]
  in
  List.iter
    (fun (label, freqs, amplitude_fs, paper) ->
      let codes =
        Digital_test.ideal_codes config ~sample_rate:fs ~samples ~freqs ~amplitude_fs
      in
      let active = Digital_test.activated fir ~codes ~faults in
      let n_active = Array.fold_left (fun a b -> if b then a + 1 else a) 0 active in
      let prefix = Digital_test.activation_prefix fir ~codes ~faults in
      Format.printf "%s: activation sweep compactable to %d/%d patterns@." label prefix
        samples;
      let det =
        Digital_test.spectral_coverage config fir ~sample_rate:fs ~input_codes:codes
          ~reference_codes:codes ~tone_freqs:freqs ~faults
      in
      Report.add_comparison report ~section:"coverage-ideal" ~name:label ~paper
        ~measured:(Texttable.cell_pct det.Digital_test.coverage);
      Texttable.add_row t
        [ label;
          Texttable.cell_pct det.Digital_test.coverage;
          Texttable.cell_pct (float_of_int n_active /. float_of_int (Array.length faults));
          Texttable.cell_pct (float_of_int det.Digital_test.detected /. float_of_int n_active);
          paper ])
    [ ("pure sine", [ f1 ], 0.9, "89.6%");
      ("two-tone", [ f1; f2 ], 0.45, "95.5%") ];
  Texttable.print t;
  Format.printf
    "Shape reproduced: the two-tone stimulus exercises intermodulation-activated@.\
     faults the pure sine misses.  Escapes are LSB-region faults or faults the@.\
     sine-class stimulus never activates (structurally redundant for it).@.";
  (* The paper's fault list is "stuck-at or delay": transition coverage of
     the same two-tone stimulus under the launch-off-capture bound. *)
  let f1 = Digital_test.coherent_tone ~sample_rate:fs ~samples ~target:90e3 in
  let f2 = Digital_test.coherent_tone ~sample_rate:fs ~samples ~target:110e3 in
  let codes =
    Digital_test.ideal_codes config ~sample_rate:fs ~samples ~freqs:[ f1; f2 ]
      ~amplitude_fs:0.45
  in
  let transition_faults = Msoc_netlist.Transition.universe fir.Fir_netlist.circuit in
  let tr =
    Msoc_netlist.Transition.coverage fir.Fir_netlist.circuit ~output:"y"
      ~drive:(fun sim cycle -> Fir_netlist.drive fir sim codes.(cycle))
      ~samples ~faults:transition_faults
  in
  Format.printf
    "@.Transition (delay) faults, two-tone: %.1f%% covered (%d untoggled, %d unobserved)@."
    (100.0 *. tr.Msoc_netlist.Transition.coverage)
    tr.Msoc_netlist.Transition.untoggled tr.Msoc_netlist.Transition.unobserved

(* ------------------------------------------------------------------ *)
(* §5 — 13-tap filter through the realistic analog path.               *)
(* ------------------------------------------------------------------ *)

let quantize_reference config codes fitted ~adc_rate =
  let synth =
    Array.init (Array.length codes) (fun tcycle ->
        Tone.sample ~sample_rate:adc_rate ~t:tcycle fitted)
  in
  Array.map
    (fun v ->
      let c = int_of_float (Float.round v) in
      let lo = -(1 lsl (config.Digital_test.input_bits - 1)) in
      let hi = (1 lsl (config.Digital_test.input_bits - 1)) - 1 in
      max lo (min hi c))
    synth

let coverage_noisy () =
  section "Coverage (through the analog path) — 13-tap filter, noise/INL/offset real";
  (* the filter input width matches the ADC so no requantization intervenes *)
  let config =
    { Digital_test.default_config with
      Digital_test.input_bits = adc_params.Msoc_analog.Adc.bits }
  in
  let fir = Digital_test.build config in
  let faults = Digital_test.collapsed_faults fir in
  Format.printf "filter: %a@.faults: %d@.@." Netlist.pp_stats fir.Fir_netlist.circuit
    (Array.length faults);
  let adc_rate = Path.adc_rate_hz path in
  let fs = path.Path.ctx.Context.sim_rate_hz in
  let capture patterns seed =
    let n_sim = patterns * decim in
    let f1 = Tone.coherent_frequency ~sample_rate:adc_rate ~samples:patterns ~target:90e3 in
    let f2 = Tone.coherent_frequency ~sample_rate:adc_rate ~samples:patterns ~target:110e3 in
    let engine = Path.engine path (Path.nominal_part path) ~seed ~samples:n_sim in
    let input =
      Tone.synthesize ~sample_rate:fs ~samples:n_sim
        [ Tone.component ~freq:(1e6 +. f1)
            ~amplitude:(Units.vpeak_of_dbm Propagate.standard_test_level_dbm) ();
          Tone.component ~freq:(1e6 +. f2)
            ~amplitude:(Units.vpeak_of_dbm Propagate.standard_test_level_dbm) () ]
    in
    let codes = Path.run_codes engine input in
    (* Calibrate the golden reference on the captured tones (the adaptive
       pre-measurement), then quantize the ideal two-tone. *)
    let floats = Array.map float_of_int codes in
    let fitted =
      [ Tone.fit floats ~sample_rate:adc_rate ~freq:f1;
        Tone.fit floats ~sample_rate:adc_rate ~freq:f2 ]
    in
    let reference = quantize_reference config codes fitted ~adc_rate in
    (* Frequencies where the uncertainty is non-uniform: the tones plus the
       analog path's own distortion products, from the attribute model. *)
    let im3_lo, im3_hi = Metrics.intermod3_products ~f1 ~f2 in
    let fold f =
      let r = Float.rem (Float.abs f) adc_rate in
      if r <= adc_rate /. 2.0 then r else adc_rate -. r
    in
    let exclusions =
      (* the ADC's even-order INL bow adds second-order products at
         f1 +/- f2 on top of the odd-order IM3 and harmonics *)
      [ f1; f2; im3_lo; im3_hi; fold (2.0 *. f1); fold (2.0 *. f2); fold (3.0 *. f1);
        fold (3.0 *. f2); fold (f1 +. f2); fold (f2 -. f1);
        fold lpf_params.Lpf.clock_hz ]
    in
    (codes, reference, [ f1; f2 ], exclusions)
  in
  let patterns1 = if quick then 1024 else 2048 in
  let patterns2 = if quick then 2048 else 8192 in
  let codes, reference, tones, exclusions = capture patterns1 99 in
  (* Ideal-input baseline on the same filter: quantized two-tone applied
     directly, no analog path. *)
  let ideal =
    Digital_test.spectral_coverage config fir ~sample_rate:adc_rate ~input_codes:reference
      ~reference_codes:reference ~tone_freqs:tones ~faults
  in
  Format.printf "ideal-input baseline (same filter, %d patterns): coverage %.1f%%@."
    patterns1 (100.0 *. ideal.Digital_test.coverage);
  (* Input-signal quality at the filter input (paper: SFDR 62 dB, SNR 72 dB). *)
  let in_sp = Spectrum.analyze ~sample_rate:adc_rate (Array.map float_of_int codes) in
  let f1 = List.nth tones 0 in
  let snr = Metrics.snr_multi_db in_sp ~signals:tones ~exclude:exclusions () in
  let tone_p = Spectrum.tone_power in_sp ~freq:f1 in
  let worst_spur = ref 0.0 in
  List.iteri
    (fun i freq -> if i >= 2 then worst_spur := Float.max !worst_spur (Spectrum.tone_power in_sp ~freq))
    exclusions;
  let sfdr = 10.0 *. Float.log10 (tone_p /. !worst_spur) in
  Format.printf "filter-input signal: SNR %.1f dB (paper 72), SFDR %.1f dB (paper 62)@.@."
    snr sfdr;
  let all_excluded = tones @ exclusions in
  (* The expensive passes run on the domain pool (fault batches and the
     per-fault spectra distributed across domains); the detection records
     are identical to the serial path. *)
  let pool = Pool.get_default () in
  let t0 = Unix.gettimeofday () in
  let pass1 =
    Digital_test.spectral_coverage ~pool config fir ~sample_rate:adc_rate ~input_codes:codes
      ~reference_codes:reference ~tone_freqs:all_excluded ~faults
  in
  Format.printf "pass 1 (%d patterns): coverage %.1f%% (%d/%d), floor %.1f dB  [%.1f s]@."
    patterns1
    (100.0 *. pass1.Digital_test.coverage)
    pass1.Digital_test.detected pass1.Digital_test.total pass1.Digital_test.noise_floor_db
    (Unix.gettimeofday () -. t0);
  Report.add_comparison report ~section:"coverage-noisy" ~name:"pass 1 coverage"
    ~paper:"74%" ~measured:(Texttable.cell_pct pass1.Digital_test.coverage);
  (* Second pass with more patterns on the survivors (paper: 8192). *)
  let codes2, reference2, tones2, exclusions2 = capture patterns2 100 in
  let t1 = Unix.gettimeofday () in
  let merged =
    Digital_test.second_pass ~pool config fir ~sample_rate:adc_rate ~input_codes:codes2
      ~reference_codes:reference2 ~tone_freqs:(tones2 @ exclusions2) ~previous:pass1
  in
  Format.printf "pass 2 (%d patterns on %d survivors): coverage %.1f%%  [%.1f s]@."
    patterns2
    (Array.length pass1.Digital_test.undetected)
    (100.0 *. merged.Digital_test.coverage)
    (Unix.gettimeofday () -. t1);
  Report.add_comparison report ~section:"coverage-noisy" ~name:"pass 2 coverage"
    ~paper:"81.4%" ~measured:(Texttable.cell_pct merged.Digital_test.coverage);
  if Array.length merged.Digital_test.undetected_max_dev_lsb > 0 then
    Format.printf
      "remaining escapes perturb the output by at most %.3g input LSB (median %.3g)@."
      (Array.fold_left Float.max 0.0 merged.Digital_test.undetected_max_dev_lsb)
      (Msoc_stat.Describe.median merged.Digital_test.undetected_max_dev_lsb);
  Format.printf
    "@.Paper: 74%% at 2096 patterns rising to 81.4%% at 8192; noise from the analog@.\
     path lowers coverage vs the ideal case and more patterns recover part of it —@.\
     both effects reproduced (absolute numbers depend on the substrate).@."

(* ------------------------------------------------------------------ *)
(* Ablations: design choices DESIGN.md calls out, each isolated.       *)
(* ------------------------------------------------------------------ *)

let ideal_two_tone_coverage config fir faults ~samples ~window =
  let fs = 1e6 in
  let f1 = Digital_test.coherent_tone ~sample_rate:fs ~samples ~target:90e3 in
  let f2 = Digital_test.coherent_tone ~sample_rate:fs ~samples ~target:110e3 in
  let codes =
    Digital_test.ideal_codes config ~sample_rate:fs ~samples ~freqs:[ f1; f2 ]
      ~amplitude_fs:0.45
  in
  let config = { config with Digital_test.window } in
  Digital_test.spectral_coverage config fir ~sample_rate:fs ~input_codes:codes
    ~reference_codes:codes ~tone_freqs:[ f1; f2 ] ~faults

let ablation_stimulus () =
  section "Ablation — stimulus class (13-tap filter)";
  let config = Digital_test.default_config in
  let fir = Digital_test.build config in
  let faults = Digital_test.collapsed_faults fir in
  let samples = if quick then 1024 else 2048 in
  let fs = 1e6 in
  let sine tones =
    let f1 = Digital_test.coherent_tone ~sample_rate:fs ~samples ~target:90e3 in
    let freqs =
      if tones = 1 then [ f1 ]
      else [ f1; Digital_test.coherent_tone ~sample_rate:fs ~samples ~target:110e3 ]
    in
    let codes =
      Digital_test.ideal_codes config ~sample_rate:fs ~samples ~freqs
        ~amplitude_fs:(0.9 /. float_of_int tones)
    in
    Digital_test.spectral_coverage config fir ~sample_rate:fs ~input_codes:codes
      ~reference_codes:codes ~tone_freqs:freqs ~faults
  in
  let one = sine 1 and two = sine 2 in
  let random =
    Atpg_lite.grade fir.Fir_netlist.circuit ~output:"y" ~faults
      { Atpg_lite.default_config with Atpg_lite.patterns = samples }
  in
  let t = Texttable.create ~headers:[ "Stimulus"; "Coverage"; "Comment" ] in
  Texttable.add_row t
    [ "pure sine (spectral)"; Texttable.cell_pct one.Digital_test.coverage; "functional" ];
  Texttable.add_row t
    [ "two-tone (spectral)"; Texttable.cell_pct two.Digital_test.coverage; "functional" ];
  Texttable.add_row t
    [ "random patterns (exact compare)";
      Texttable.cell_pct random.Atpg_lite.coverage;
      "classic DFT baseline, needs full scan access" ];
  Texttable.print t;
  Format.printf
    "The paper's argument: a functional two-tone reaches random-pattern-class@.     coverage without any test-generation hardware.  The residual gap is the set@.     of faults only exact (sample-accurate) observation can call detected.@."

let ablation_architecture () =
  section "Ablation — filter architecture (transposed CSD vs direct-form tree)";
  let config = Digital_test.default_config in
  let design = Msoc_dsp.Fir.lowpass ~taps:config.Digital_test.taps ~cutoff:config.Digital_test.cutoff () in
  let codes, scale = Msoc_dsp.Fir.quantize design.Msoc_dsp.Fir.taps ~bits:config.Digital_test.coeff_bits in
  let samples = if quick then 1024 else 2048 in
  let t =
    Texttable.create ~headers:[ "Architecture"; "Nodes"; "DFFs"; "Faults"; "2-tone coverage" ]
  in
  List.iter
    (fun (label, architecture) ->
      let fir =
        Fir_netlist.create ~coeffs:codes ~width_in:config.Digital_test.input_bits ~scale
          ~architecture ()
      in
      let faults = Digital_test.collapsed_faults fir in
      let det =
        ideal_two_tone_coverage config fir faults ~samples ~window:config.Digital_test.window
      in
      let dffs =
        List.assoc Netlist.Dff (Netlist.gate_counts fir.Fir_netlist.circuit)
      in
      Texttable.add_row t
        [ label;
          string_of_int (Netlist.node_count fir.Fir_netlist.circuit);
          string_of_int dffs;
          string_of_int (Array.length faults);
          Texttable.cell_pct det.Digital_test.coverage ])
    [ ("transposed (CSD)", Fir_netlist.Transposed); ("direct form (tree)", Fir_netlist.Direct) ];
  Texttable.print t;
  Format.printf
    "The transposed form carries wide partial sums through its registers; the@.     direct form registers the narrow input.  Same function, different fault@.     universe — the methodology's coverage conclusions survive the change.@."

let ablation_window () =
  section "Ablation — analysis window of the spectral detector";
  let config = Digital_test.default_config in
  let fir = Digital_test.build config in
  let faults = Digital_test.collapsed_faults fir in
  let samples = if quick then 1024 else 2048 in
  let t = Texttable.create ~headers:[ "Window"; "Coverage" ] in
  List.iter
    (fun window ->
      let det = ideal_two_tone_coverage config fir faults ~samples ~window in
      Texttable.add_row t
        [ Msoc_dsp.Window.name window; Texttable.cell_pct det.Digital_test.coverage ])
    [ Msoc_dsp.Window.Rectangular; Msoc_dsp.Window.Hann; Msoc_dsp.Window.Blackman ];
  Texttable.print t;
  Format.printf
    "The rectangular window collapses: the filter's start-up transient makes the@.\
     record aperiodic and its leakage buries the fault signatures (the golden@.\
     floor rises from ~-60 dB to ~-3 dB).  Any tapered window restores the@.\
     methodology -- why section 4.1 prescribes spectral analysis with windowing.@."

let ablation_margin () =
  section "Ablation — uncertainty margin: escapes vs false alarms";
  (* the digital-test analogue of Fig. 5's threshold trade-off *)
  let config =
    { Digital_test.default_config with
      Digital_test.input_bits = adc_params.Msoc_analog.Adc.bits }
  in
  let fir = Digital_test.build config in
  let faults = Digital_test.collapsed_faults fir in
  let adc_rate = Path.adc_rate_hz path in
  let fs = path.Path.ctx.Context.sim_rate_hz in
  let patterns = if quick then 1024 else 2048 in
  let capture seed =
    let n_sim = patterns * decim in
    let f1 = Tone.coherent_frequency ~sample_rate:adc_rate ~samples:patterns ~target:90e3 in
    let f2 = Tone.coherent_frequency ~sample_rate:adc_rate ~samples:patterns ~target:110e3 in
    let engine = Path.engine path (Path.nominal_part path) ~seed ~samples:n_sim in
    let input =
      Tone.synthesize ~sample_rate:fs ~samples:n_sim
        [ Tone.component ~freq:(1e6 +. f1)
            ~amplitude:(Units.vpeak_of_dbm Propagate.standard_test_level_dbm) ();
          Tone.component ~freq:(1e6 +. f2)
            ~amplitude:(Units.vpeak_of_dbm Propagate.standard_test_level_dbm) () ]
    in
    (Path.run_codes engine input, [ f1; f2 ])
  in
  let codes, tones = capture 42 in
  let verification, _ = capture 43 in
  let floats = Array.map float_of_int codes in
  let fitted =
    List.map (fun f -> Tone.fit floats ~sample_rate:adc_rate ~freq:f) tones
  in
  let reference = quantize_reference config codes fitted ~adc_rate in
  let im3_lo, im3_hi =
    match tones with
    | [ f1; f2 ] -> Metrics.intermod3_products ~f1 ~f2
    | _ -> (0.0, 0.0)
  in
  let excl = tones @ [ im3_lo; im3_hi; 300e3; 200e3; 20e3 ] in
  let t =
    Texttable.create ~headers:[ "Margin (dB)"; "Coverage"; "False alarm (good part)" ]
  in
  List.iter
    (fun margin ->
      let config = { config with Digital_test.uncertainty_margin_db = margin } in
      let det =
        Digital_test.spectral_coverage config fir ~sample_rate:adc_rate ~input_codes:codes
          ~reference_codes:reference ~tone_freqs:excl ~faults
      in
      let alarm =
        Digital_test.false_alarm config fir ~sample_rate:adc_rate ~input_codes:codes
          ~reference_codes:reference ~tone_freqs:excl ~verification_codes:verification
      in
      Texttable.add_row t
        [ Printf.sprintf "%.0f" margin;
          Texttable.cell_pct det.Digital_test.coverage;
          (if alarm then "YES (yield loss)" else "no") ])
    [ 0.0; 2.0; 4.0; 8.0; 12.0 ];
  Texttable.print t;
  Format.printf
    "Shrinking the margin raises coverage until the detector starts failing@.     good parts — the same FCL-vs-YL trade the analog thresholds exhibit.@."

let ablation_interface () =
  section "Ablation — interface module: Nyquist ADC vs sigma-delta + CIC";
  let adc_rate = Path.adc_rate_hz path in
  let fs = path.Path.ctx.Context.sim_rate_hz in
  let n_adc = if quick then 2048 else 4096 in
  let n_sim = n_adc * decim in
  let f1 = Tone.coherent_frequency ~sample_rate:adc_rate ~samples:n_adc ~target:90e3 in
  let f2 = Tone.coherent_frequency ~sample_rate:adc_rate ~samples:n_adc ~target:110e3 in
  let input =
    Tone.synthesize ~sample_rate:fs ~samples:n_sim
      [ Tone.component ~freq:(1e6 +. f1)
          ~amplitude:(Units.vpeak_of_dbm Propagate.standard_test_level_dbm) ();
        Tone.component ~freq:(1e6 +. f2)
          ~amplitude:(Units.vpeak_of_dbm Propagate.standard_test_level_dbm) () ]
  in
  let engine = Path.engine path (Path.nominal_part path) ~seed:7 ~samples:n_sim in
  let adc_volts = Path.run_volts engine input in
  (* sigma-delta digitising the same LPF output (the engine's runs replay
     one noise realisation, so this is the signal the ADC saw) *)
  let analog = Path.run_analog engine input in
  let sd_params = Msoc_analog.Sigma_delta.default_params ~full_scale_v:1.0 in
  let sd =
    Msoc_analog.Sigma_delta.instance sd_params path.Path.ctx
      (Msoc_analog.Sigma_delta.nominal_values sd_params)
  in
  let sd_codes =
    Msoc_analog.Sigma_delta.kernel sd ~decimation:decim ~rng:(Prng.create 8) ~samples:n_sim
      analog
  in
  let sd_scale =
    float_of_int
      (Msoc_analog.Sigma_delta.output_full_scale ~decimation:decim)
  in
  let sd_volts = Array.map (fun c -> float_of_int c /. sd_scale) sd_codes in
  let report label volts =
    let sp = Spectrum.analyze ~sample_rate:adc_rate volts in
    let im3_lo, im3_hi = Metrics.intermod3_products ~f1 ~f2 in
    let snr =
      Metrics.snr_multi_db sp ~signals:[ f1; f2 ] ~exclude:[ im3_lo; im3_hi; 300e3; 200e3 ] ()
    in
    let tone = Spectrum.tone_power sp ~freq:f1 in
    let spur =
      List.fold_left
        (fun acc f -> Float.max acc (Spectrum.tone_power sp ~freq:f))
        1e-30 [ im3_lo; im3_hi; 300e3; 200e3 ]
    in
    (label, snr, 10.0 *. Float.log10 (tone /. spur))
  in
  let t = Texttable.create ~headers:[ "Interface"; "SNR (dB)"; "SFDR (dB)" ] in
  List.iter
    (fun (label, snr, sfdr) ->
      Texttable.add_row t [ label; Printf.sprintf "%.1f" snr; Printf.sprintf "%.1f" sfdr ])
    [ report "14-bit Nyquist ADC" adc_volts;
      report "2nd-order sigma-delta + sinc^3 (OSR 20)" sd_volts ];
  Texttable.print t;
  Format.printf
    "The paper treats both as interchangeable interface modules; at this low@.     oversampling ratio the one-bit loop gives up SNR to the Nyquist converter,@.     which the attribute-domain noise bookkeeping captures as a higher floor.@."

let diagnosis () =
  section "Fault diagnosis — localising a failure from its spectral signature";
  let config = Digital_test.default_config in
  let fir = Digital_test.build config in
  let faults = Digital_test.collapsed_faults fir in
  let fs = 1e6 in
  let samples = if quick then 1024 else 2048 in
  let f1 = Digital_test.coherent_tone ~sample_rate:fs ~samples ~target:90e3 in
  let f2 = Digital_test.coherent_tone ~sample_rate:fs ~samples ~target:110e3 in
  let codes =
    Digital_test.ideal_codes config ~sample_rate:fs ~samples ~freqs:[ f1; f2 ]
      ~amplitude_fs:0.45
  in
  let t0 = Unix.gettimeofday () in
  let dict = Diagnose.build fir ~sample_rate:fs ~input_codes:codes ~faults in
  let acc = Diagnose.clustering_accuracy dict ~sample:(if quick then 200 else 500) ~seed:11 in
  Format.printf
    "dictionary: %d faults (%d diagnosable) built in %.1f s@.\
     nearest-neighbour localisation: %.1f%% same tap+role, %.1f%% same tap@.\
     (chance level for a 13-tap, 3-role datapath is ~3%%)@."
    (Array.length (Diagnose.entries dict))
    acc.Diagnose.diagnosable
    (Unix.gettimeofday () -. t0)
    (100.0 *. acc.Diagnose.site_match_rate)
    (100.0 *. acc.Diagnose.tap_match_rate)

let ablations () =
  diagnosis ();
  ablation_stimulus ();
  ablation_architecture ();
  ablation_window ();
  ablation_margin ();
  ablation_interface ()

(* ------------------------------------------------------------------ *)
(* SOC test schedule: greedy vs annealed makespan on the shipped SOC   *)
(* fixtures.  The annealed/greedy ratio ships with a Le 1.0 bound, so  *)
(* bench-diff gates the scheduler's never-worse-than-greedy contract.  *)
(* ------------------------------------------------------------------ *)

let soc_schedule () =
  section "SOC schedule — test-time minimization under bus and power constraints";
  let restarts = if quick then 4 else 8 in
  let iters = if quick then 200 else 400 in
  let t =
    Texttable.create
      ~headers:
        [ "SOC"; "Tests"; "Serial"; "Greedy"; "Annealed"; "Ratio"; "Greedy ms";
          "Annealed ms" ]
  in
  List.iter
    (fun name ->
      let soc = Option.get (Soc.find name) in
      let problem = Soc_schedule.problem_of_soc soc in
      let greedy = Soc_schedule.greedy problem in
      let annealed, _stats = Soc_schedule.anneal ~restarts ~iters problem in
      (match Soc_schedule.check problem annealed with
      | Ok () -> ()
      | Error msg -> failwith ("soc-schedule: invalid annealed schedule: " ^ msg));
      let serial =
        Array.fold_left
          (fun acc (test : Soc_schedule.test) -> acc + test.Soc_schedule.cycles)
          0 problem.Soc_schedule.tests
      in
      let g = greedy.Soc_schedule.makespan and a = annealed.Soc_schedule.makespan in
      let ratio = float_of_int a /. float_of_int g in
      Texttable.add_row t
        [ name;
          string_of_int (Array.length problem.Soc_schedule.tests);
          string_of_int serial; string_of_int g; string_of_int a;
          Printf.sprintf "%.4f" ratio;
          Printf.sprintf "%.1f" (1000.0 *. Soc_schedule.seconds problem g);
          Printf.sprintf "%.1f" (1000.0 *. Soc_schedule.seconds problem a) ];
      Report.add_scalar report ~section:"soc-schedule"
        ~name:(name ^ " greedy makespan") ~unit_label:"cycles" (float_of_int g);
      Report.add_scalar report ~section:"soc-schedule"
        ~name:(name ^ " annealed makespan") ~unit_label:"cycles" (float_of_int a);
      Report.add_scalar report ~section:"soc-schedule" ~name:(name ^ " annealed/greedy")
        ~unit_label:"ratio" ~bound:(Report.Le 1.0) ratio)
    Soc.names;
  Texttable.print t;
  Format.printf
    "Serial is the sum of every priced test (application + wrapper load + fixture);@.\
     the makespans pack them under the SOC's test-bus and power constraints.  The@.\
     ratio row carries a <= 1.0 bound into the report: bench-diff fails if annealing@.\
     ever loses to the greedy baseline.@."

(* ------------------------------------------------------------------ *)
(* Bechamel timing of the computational kernels.                       *)
(* ------------------------------------------------------------------ *)

let kernels () =
  section "Kernel timings (Bechamel)";
  let open Bechamel in
  (* fft-4096: warm plan cache (steady state) vs cold plan every run.  The
     "fft" rows time the full complex transform; the "rfft" rows the
     real-input entry point (half-length packed transform writing into
     preallocated split output) whose whole point is to undercut them. *)
  let g = Prng.create 5 in
  let signal4096 = Array.init 4096 (fun _ -> Prng.float g -. 0.5) in
  let complex4096 = Array.map (fun x -> { Complex.re = x; im = 0.0 }) signal4096 in
  let fft_test =
    Test.make ~name:"fft-4096-warm" (Staged.stage (fun () -> ignore (Msoc_dsp.Fft.fft complex4096)))
  in
  let fft_cold_test =
    Test.make ~name:"fft-4096-cold"
      (Staged.stage (fun () ->
           Msoc_dsp.Fft.clear_plan_cache ();
           ignore (Msoc_dsp.Fft.fft complex4096)))
  in
  let rfft4096_re = Array.make 2049 0.0 and rfft4096_im = Array.make 2049 0.0 in
  let rfft_test =
    Test.make ~name:"rfft-4096"
      (Staged.stage (fun () ->
           Msoc_dsp.Fft.rfft_into signal4096 ~re:rfft4096_re ~im:rfft4096_im))
  in
  (* non-power-of-two (Bluestein) length: the cached plan also holds the
     pre-transformed chirp kernel, so the cold/warm gap is larger.  The
     real-input path halves the Bluestein length too (1000 -> 500). *)
  let signal1000 = Array.init 1000 (fun _ -> Prng.float g -. 0.5) in
  let complex1000 = Array.map (fun x -> { Complex.re = x; im = 0.0 }) signal1000 in
  let fft_bluestein_test =
    Test.make ~name:"fft-1000-warm" (Staged.stage (fun () -> ignore (Msoc_dsp.Fft.fft complex1000)))
  in
  let fft_bluestein_cold_test =
    Test.make ~name:"fft-1000-cold"
      (Staged.stage (fun () ->
           Msoc_dsp.Fft.clear_plan_cache ();
           ignore (Msoc_dsp.Fft.fft complex1000)))
  in
  let rfft1000_re = Array.make 501 0.0 and rfft1000_im = Array.make 501 0.0 in
  let rfft_bluestein_test =
    Test.make ~name:"rfft-1000"
      (Staged.stage (fun () ->
           Msoc_dsp.Fft.rfft_into signal1000 ~re:rfft1000_re ~im:rfft1000_im))
  in
  (* serial Monte-Carlo inner loop through the seed-table + scratch-
     generator arena: the allocation profile this PR exists to flatten *)
  let mc_rng = Prng.create 99 in
  let mc_arena_test =
    Test.make ~name:"mc-arena-8192"
      (Staged.stage (fun () ->
           ignore
             (Monte_carlo.sample_array_pooled ~trials:8192 ~rng:mc_rng
                ~f:(fun g _ -> Prng.gaussian g)
                ())))
  in
  (* parallel fault simulation: one 62-fault batch over 256 cycles *)
  let design = Msoc_dsp.Fir.lowpass ~taps:9 ~cutoff:0.15 () in
  let codes, scale = Msoc_dsp.Fir.quantize design.Msoc_dsp.Fir.taps ~bits:8 in
  let fir = Fir_netlist.create ~coeffs:codes ~width_in:10 ~scale () in
  let faults_all = Fault.collapse fir.Fir_netlist.circuit (Fault.universe fir.Fir_netlist.circuit) in
  let faults = Array.sub faults_all 0 62 in
  let stimulus = Array.init 256 (fun i -> ((i * 37) mod 512) - 256) in
  let fsim_test =
    Test.make ~name:"fault-sim-62x256"
      (Staged.stage (fun () ->
           ignore
             (Fault_sim.detect_exact fir.Fir_netlist.circuit ~output:"y"
                ~drive:(fun sim cycle -> Fir_netlist.drive fir sim stimulus.(cycle))
                ~samples:256 ~faults)))
  in
  (* the full collapsed fault set (several batches): serial vs pooled.
     The pooled kernel pins 8 domains (the ROADMAP target configuration)
     so its name and workload are machine-independent. *)
  let pool8 = Pool.create ~size:8 () in
  let fsim_serial_test =
    Test.make ~name:(Printf.sprintf "fault-sim-%dx256-serial" (Array.length faults_all))
      (Staged.stage (fun () ->
           ignore
             (Fault_sim.detect_exact fir.Fir_netlist.circuit ~output:"y"
                ~drive:(fun sim cycle -> Fir_netlist.drive fir sim stimulus.(cycle))
                ~samples:256 ~faults:faults_all)))
  in
  let fsim_pooled_test =
    Test.make
      ~name:(Printf.sprintf "fault-sim-%dx256-pool8" (Array.length faults_all))
      (Staged.stage (fun () ->
           ignore
             (Fault_sim.detect_exact ~pool:pool8 fir.Fir_netlist.circuit ~output:"y"
                ~drive:(fun sim cycle -> Fir_netlist.drive fir sim stimulus.(cycle))
                ~samples:256 ~faults:faults_all)))
  in
  (* fault dropping over a long sweep: graded first-detect cycles on 1024
     patterns — late chunks fly with only the stubborn remainder live *)
  let stimulus1024 = Array.init 1024 (fun i -> ((i * 37) mod 512) - 256) in
  let fsim_drop_test =
    Test.make ~name:"fault-sim-drop"
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
    Test.make ~name:"faultsim-spectral"
      (Staged.stage (fun () ->
           ignore
             (Digital_test.spectral_coverage spectral_config spectral_fir ~sample_rate:1e6
                ~input_codes:spectral_codes ~reference_codes:spectral_codes
                ~tone_freqs:spectral_tones ~faults:spectral_faults)))
  in
  (* analog path waveform simulation, 1024 sim samples: the engine is
     built inside the timed closure, so the row times drawing the noise
     tracks plus one run *)
  let wave = Tone.synthesize ~sample_rate:8e6 ~samples:1024 [ Tone.component ~freq:1.1e6 ~amplitude:0.02 () ] in
  let path_test =
    Test.make ~name:"path-sim-1024"
      (Staged.stage (fun () ->
           let engine = Path.engine path (Path.nominal_part path) ~seed:3 ~samples:1024 in
           ignore (Path.run_codes engine wave)))
  in
  (* the virtual tester: the default receiver's nominal part through the
     adaptive measurement set — one session engine, every capture
     replaying it *)
  let measure_part = Path.nominal_part path in
  let measure_test =
    Test.make ~name:"measure-validate"
      (Staged.stage (fun () ->
           ignore
             (Msoc_synth.Measure.validate_part path measure_part
                ~strategy:Propagate.Adaptive)))
  in
  (* analytic coverage *)
  let population = Coverage.defective_population ~nominal:23.0 ~tol:1.5 in
  let coverage_test =
    Test.make ~name:"coverage-analytic"
      (Staged.stage (fun () ->
           ignore
             (Coverage.analytic ~population ~bound:(Spec.At_least 21.5)
                ~error:(Coverage.Uniform_err 1.1) ~threshold_shift:0.0)))
  in
  let plan_test =
    Test.make ~name:"plan-synthesis" (Staged.stage (fun () -> ignore (Plan.synthesize path)))
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
              Test.make ~name:("plan-synthesis-" ^ name)
                (Staged.stage (fun () -> ignore (Plan.synthesize p))))
            (Msoc_analog.Topology.build name))
      Msoc_analog.Topology.names
  in
  (* SOC schedule search over the reference problem: greedy decode plus a
     short annealing walk.  The problem is built once outside the kernel —
     per-core synthesis is already timed by the plan kernels. *)
  let soc_problem = Soc_schedule.problem_of_soc (Soc.reference ()) in
  let soc_schedule_test =
    Test.make ~name:"soc-schedule"
      (Staged.stage (fun () ->
           ignore (Soc_schedule.greedy soc_problem);
           ignore (Soc_schedule.anneal ~restarts:2 ~iters:50 soc_problem)))
  in
  (* Every kernel is also measured for GC load (minor/major words per run
     from Bechamel's allocation instances, major collections from a
     [Gc.quick_stat] bracket around the whole run), and the quick-mode
     statistics are fixed: a kernel that yields fewer than [min_samples]
     post-warm-up samples is rerun with a doubled time quota (twice at
     most), and the first sample of each run — taken while caches, branch
     predictors and the plan tables are still cold — is discarded. *)
  let min_samples = 8 in
  let instances =
    Toolkit.Instance.[ minor_allocated; major_allocated; monotonic_clock ]
  in
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
  let minor_label = Measure.label Toolkit.Instance.minor_allocated in
  let major_label = Measure.label Toolkit.Instance.major_allocated in
  List.iter
    (fun test ->
      let raw, major_cols = benchmark_adaptive test in
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
            let minor_words = mean (per minor_label) in
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
                ~unit_label:"Mwords" ~bound:(Report.Le 4.78) (minor_words /. 1e6)
          end)
        raw)
    ([ fft_test; fft_cold_test; rfft_test; fft_bluestein_test; fft_bluestein_cold_test;
       rfft_bluestein_test; mc_arena_test; fsim_test; fsim_serial_test; fsim_pooled_test;
       fsim_drop_test; spectral_test; path_test; measure_test; coverage_test; plan_test ]
    @ topology_plan_tests @ [ soc_schedule_test ]);
  Texttable.print t

(* ------------------------------------------------------------------ *)
(* Wall-clock speedup of the pooled engines vs their serial paths.     *)
(* The pooled results are asserted bit-identical to the serial ones    *)
(* before any timing is reported.                                      *)
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
     set, 512 cycles — 4 batches of 62 faults. *)
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
              (if pooled = serial then "yes" else "NO — DETERMINISM BUG") ]))
    [ 2; 4; 8 ];
  (* Monte-Carlo trial loop: the Figure 4 error model at full size. *)
  let iip3 = path_param "Mixer" "iip3_dbm" in
  let mixer_gain = path_param "Mixer" "gain_db" in
  let lpf_gain = path_param "LPF" "gain_db" in
  let trials = if quick then 200_000 else 1_000_000 in
  let trial g _ =
    let actual_mixer = Param.sample mixer_gain g in
    let actual_lpf = Param.sample lpf_gain g in
    let true_iip3 = Param.sample iip3 g in
    true_iip3 +. actual_mixer +. actual_lpf -. mixer_gain.Param.nominal
    -. lpf_gain.Param.nominal -. true_iip3
  in
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
              (if pooled = mc_serial then "yes" else "NO — DETERMINISM BUG") ]))
    [ 2; 4 ];
  Texttable.print t;
  Format.printf
    "Speedups track the physical core count: on a single-core host the pooled@.\
     runs time-share one CPU (expect ~1x or slightly below); with >= 4 cores the@.\
     fault-sim and MC rows approach the pool size.  Identical = pooled output is@.\
     bit-for-bit the serial output, the pool's determinism contract.@."

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
     on and report per-domain chunk counts and busy time. *)
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
  (* per-domain chunk count and busy time, domains that ran no chunk left out *)
  let chunks = List.filter (fun sp -> sp.Trace.sp_name = "pool.chunk") trace.Trace.spans in
  let tracks =
    List.sort_uniq compare (List.map (fun sp -> sp.Trace.sp_track) chunks)
    |> List.map (fun track ->
           let mine = List.filter (fun sp -> sp.Trace.sp_track = track) chunks in
           ( track,
             List.length mine,
             List.fold_left (fun acc sp -> acc +. sp.Trace.sp_dur_ns) 0.0 mine ))
  in
  let bt = Texttable.create ~headers:[ "Domain"; "Chunks"; "Busy (ms)"; "Share" ] in
  let total_busy = List.fold_left (fun acc (_, _, busy) -> acc +. busy) 0.0 tracks in
  List.iter
    (fun (track, n, busy) ->
      Texttable.add_row bt
        [ Printf.sprintf "%d" track;
          string_of_int n;
          Printf.sprintf "%.3f" (busy /. 1e6);
          Texttable.cell_pct (busy /. Float.max total_busy 1.0) ])
    tracks;
  Format.printf "@.Pool balance — fault sim detect_exact, pool size 4 (%d faults, %d cycles):@."
    (Array.length faults) samples;
  Texttable.print bt;
  let n_tracks = List.length tracks in
  if n_tracks > 0 then begin
    let max_busy = List.fold_left (fun acc (_, _, busy) -> Float.max acc busy) 0.0 tracks in
    let mean_busy = total_busy /. float_of_int n_tracks in
    Format.printf "imbalance (max busy / mean busy): %.2f across %d active domain(s)@."
      (max_busy /. Float.max mean_busy 1.0)
      n_tracks;
    Report.add_scalar report ~section:"pool-balance" ~name:"active domains"
      (float_of_int n_tracks);
    Report.add_scalar report ~section:"pool-balance" ~name:"imbalance max/mean"
      ~unit_label:"ratio"
      (max_busy /. Float.max mean_busy 1.0)
  end;
  Obs.reset ()

(* ------------------------------------------------------------------ *)
(* Service latency under load: an in-process daemon, several client    *)
(* domains firing a mixed verb workload, client-observed latency       *)
(* percentiles (p50/p99, nearest rank) into the v3 report so           *)
(* bench-diff gates the service path alongside the kernels.            *)
(* ------------------------------------------------------------------ *)

module Serve = Msoc_serve.Server
module Serve_client = Msoc_serve.Client
module Serve_protocol = Msoc_serve.Protocol

let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* One observation per request: client-observed latency plus the GC
   words allocated across the process during the round trip — the daemon
   runs in-process, so the delta covers request encode, service compute
   and response parse together.  [Gc.quick_stat] is cheap; the delta is
   sampled immediately around the call so the bench's own bookkeeping
   stays out of it. *)
type serve_sample = { lat_ns : float; minor_w : float; major_w : float }

let serve_request_sample c req =
  let g0 = Gc.quick_stat () in
  let s = Obs.now_ns () in
  match Serve_client.request c req with
  | Ok resp when resp.Serve_protocol.status = Serve_protocol.Ok_ ->
    let e = Obs.now_ns () in
    let g1 = Gc.quick_stat () in
    Some
      { lat_ns = Int64.to_float (Int64.sub e s);
        minor_w = g1.Gc.minor_words -. g0.Gc.minor_words;
        major_w = g1.Gc.major_words -. g0.Gc.major_words }
  | Ok _ | Error _ -> None

(* Run [rounds] of [mix] from [clients] concurrent connections against
   the daemon at [socket_path]; returns per-kernel samples (merged over
   clients) and the wall-clock of the whole run.  [req_of] lets a kernel
   vary its request by round (cache-busting seeds shared by every
   client). *)
let serve_drive ~socket_path ~clients ~rounds mix =
  let t0 = Obs.now_ns () in
  let worker () =
    Serve_client.with_connection ~socket_path (fun c ->
        let samples = List.map (fun (name, _) -> (name, ref [])) mix in
        for round = 1 to rounds do
          List.iter
            (fun (name, req_of) ->
              match serve_request_sample c (req_of round) with
              | Some sample ->
                let l = List.assoc name samples in
                l := sample :: !l
              | None -> ())
            mix
        done;
        List.map (fun (name, l) -> (name, !l)) samples)
  in
  let domains = List.init clients (fun _ -> Domain.spawn worker) in
  let results = List.map Domain.join domains in
  let wall_s = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e9 in
  let merged =
    List.map
      (fun (name, _) ->
        (name, List.concat_map (fun per_client -> List.assoc name per_client) results))
      mix
  in
  (merged, wall_s)

(* Render one phase's table, record its timings, return the total request
   count and the per-kernel p50s (for cross-phase speedup scalars). *)
let serve_record_phase merged =
  let t =
    Texttable.create
      ~headers:
        [ "Request"; "n"; "mean (us)"; "p50 (us)"; "p99 (us)"; "mWords/req" ]
  in
  let total = ref 0 in
  let p50s =
    List.filter_map
      (fun (name, samples) ->
        let lats = Array.of_list (List.map (fun s -> s.lat_ns) samples) in
        Array.sort compare lats;
        total := !total + Array.length lats;
        if Array.length lats = 0 then None
        else begin
          let n = float_of_int (Array.length lats) in
          let mean_of f = List.fold_left (fun a s -> a +. f s) 0.0 samples /. n in
          let s = Msoc_stat.Describe.summarize lats in
          let p50 = nearest_rank lats 50.0 and p99 = nearest_rank lats 99.0 in
          let minor_words = mean_of (fun s -> s.minor_w) in
          let major_words = mean_of (fun s -> s.major_w) in
          Texttable.add_row t
            [ name;
              string_of_int (Array.length lats);
              Printf.sprintf "%.1f" (s.Msoc_stat.Describe.mean /. 1e3);
              Printf.sprintf "%.1f" (p50 /. 1e3);
              Printf.sprintf "%.1f" (p99 /. 1e3);
              Printf.sprintf "%.0f" minor_words ];
          Report.add_timing report ~section:"serve" ~name
            ~mean_ns:s.Msoc_stat.Describe.mean ~stddev_ns:s.Msoc_stat.Describe.stddev
            ~samples:s.Msoc_stat.Describe.count ~minor_words ~major_words ~p50_ns:p50
            ~p99_ns:p99 ();
          Some (name, p50)
        end)
      merged
  in
  Texttable.print t;
  (!total, p50s)

(* Scrape one counter out of a Prometheus metrics body. *)
let serve_metric_value body name =
  String.split_on_char '\n' body
  |> List.find_map (fun line ->
         match String.index_opt line ' ' with
         | Some i when String.sub line 0 i = name ->
           float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
         | _ -> None)

let serve_load () =
  section "Service latency — msoc serve under concurrent clients";
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "msoc-bench-%d.sock" (Unix.getpid ()))
  in
  let rounds = if quick then 12 else 40 in
  let clients = 3 in
  (* ---- phase A: the cold plane — one executor, no cache, every
     request computed from scratch.  This is the baseline the historical
     serve kernels describe, and the cold p50s the speedup scalars are
     measured against.  The faultsim verb is scaled down so the
     quick-mode bench stays quick; it still exercises the whole
     build-simulate-analyze service path. *)
  let handle =
    Serve.start
      (Serve.config ~queue_capacity:64 ~executors:1 ~cache_size:0 socket_path)
  in
  let const req _round = req in
  let cold_mix =
    [ ("serve-ping", const (Serve_protocol.request Serve_protocol.Ping));
      ("serve-plan", const (Serve_protocol.request Serve_protocol.Plan));
      ("serve-metrics", const (Serve_protocol.request Serve_protocol.Metrics));
      ("serve-faultsim",
       const (Serve_protocol.request ~taps:5 ~samples:128 Serve_protocol.Faultsim)) ]
  in
  let cold, cold_wall_s = serve_drive ~socket_path ~clients ~rounds cold_mix in
  Serve.stop handle;
  let cold_total, cold_p50s = serve_record_phase cold in
  let cold_throughput = float_of_int cold_total /. Float.max cold_wall_s 1e-9 in
  Report.add_scalar report ~section:"serve" ~name:"cold throughput"
    ~unit_label:"req/s" cold_throughput;
  Format.printf
    "cold: %d requests over %d client connection(s) in %.2f s — %.0f req/s@."
    cold_total clients cold_wall_s cold_throughput;
  (* ---- phase B: the throughput plane — two executors, single-flight
     result cache on.  serve-plan repeats the same model every round
     (cache hits from round 2), serve-faultsim changes its seed per round
     (cache-busting) but all clients share each round's seed, so a
     concurrent duplicate joins the in-flight execution. *)
  let handle =
    Serve.start (Serve.config ~queue_capacity:64 ~executors:2 ~cache_size:256 socket_path)
  in
  let plane_mix =
    [ ("serve-ping-plane", const (Serve_protocol.request Serve_protocol.Ping));
      ("serve-plan-hit", const (Serve_protocol.request Serve_protocol.Plan));
      ("serve-metrics-plane", const (Serve_protocol.request Serve_protocol.Metrics));
      ("serve-faultsim-coalesced",
       fun round ->
         Serve_protocol.request ~taps:5 ~samples:128 ~seed:(100 + round)
           Serve_protocol.Faultsim) ]
  in
  let plane, plane_wall_s = serve_drive ~socket_path ~clients ~rounds plane_mix in
  let sharing_stats =
    Serve_client.with_connection ~socket_path (fun c ->
        match Serve_client.request c (Serve_protocol.request Serve_protocol.Metrics) with
        | Ok resp when resp.Serve_protocol.status = Serve_protocol.Ok_ ->
          let v name =
            Option.value ~default:0.0 (serve_metric_value resp.Serve_protocol.body name)
          in
          Some
            ( v "msoc_serve_coalesced_batches_total",
              v "msoc_serve_batched_total",
              v "msoc_serve_cache_hits_total" )
        | Ok _ | Error _ -> None)
  in
  Serve.stop handle;
  let plane_total, plane_p50s = serve_record_phase plane in
  let plane_throughput = float_of_int plane_total /. Float.max plane_wall_s 1e-9 in
  (* the bound sits above the ~29 req/s the single-executor cold plane
     measures on the reference host: the throughput plane must beat the
     old serial daemon even on a single-core runner, where the win comes
     from the cache and shared executions rather than parallel executors *)
  Report.add_scalar report ~section:"serve" ~name:"throughput" ~unit_label:"req/s"
    ~bound:(Report.Ge 40.0) plane_throughput;
  (match (List.assoc_opt "serve-plan" cold_p50s, List.assoc_opt "serve-plan-hit" plane_p50s)
   with
  | Some cold_p50, Some hit_p50 when hit_p50 > 0.0 ->
    let speedup = cold_p50 /. hit_p50 in
    Format.printf "plan cache-hit p50 speedup: %.1fx (cold %.1f us -> hit %.1f us)@."
      speedup (cold_p50 /. 1e3) (hit_p50 /. 1e3);
    Report.add_scalar report ~section:"serve" ~name:"plan cache-hit speedup p50"
      ~unit_label:"x" ~bound:(Report.Ge 5.0) speedup
  | _ -> ());
  (match sharing_stats with
  | Some (executions, requests, cache_hits) ->
    Format.printf
      "single-flight: %.0f shared execution(s) answering %.0f request(s); %.0f cache hit(s)@."
      executions requests cache_hits;
    Report.add_scalar report ~section:"serve" ~name:"shared executions" executions;
    Report.add_scalar report ~section:"serve" ~name:"shared requests" requests;
    Report.add_scalar report ~section:"serve" ~name:"cache hits" cache_hits
  | None -> ());
  Format.printf
    "plane: %d requests over %d client connection(s) in %.2f s — %.0f req/s; latency@.\
     is client-observed (connect-to-response, queue wait included); mWords/req is@.\
     process-wide allocation (the daemon is in-process).@."
    plane_total clients plane_wall_s plane_throughput

let () =
  Format.printf "Mixed-signal SOC path test synthesis — evaluation reproduction%s@."
    (if quick then " (quick mode)" else "");
  figure6 ();
  table1 ();
  figure3 ();
  figure4 ();
  tester_validation ();
  backprop ();
  figure2_and_5 ();
  table2 ();
  figure1 ();
  coverage_ideal ();
  coverage_noisy ();
  ablations ();
  soc_schedule ();
  kernels ();
  parallel_speedup ();
  telemetry_overhead ();
  serve_load ();
  let r = Report.finalize report in
  let rev_file = Printf.sprintf "BENCH_%s.json" git_rev in
  Report.write rev_file r;
  Report.write "BENCH_latest.json" r;
  Format.printf "@.report: wrote %s and BENCH_latest.json@." rev_file;
  Format.printf "@.Done.@."
