(* The paper's evaluation (DATE 2000), regenerated: every table and figure,
   the prose coverage numbers of §5, the validation and ablation runs that
   back them, and the SOC test schedule.

   Run with:   dune exec bench/paper.exe

   It takes no argument and runs every section at full size.  Its output is
   byte-identical at every pool size and is pinned by test/golden/paper.txt:
   `dune runtest` diffs the two, and `dune promote` accepts a deliberate
   change.  EXPERIMENTS.md quotes its numbers.  The run exits non-zero when
   a claim its text makes fails: a virtual-tester result outside its budget,
   an annealed schedule longer than the greedy one, or one shorter than its
   lower bound. *)

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
module Logic_sim = Msoc_netlist.Logic_sim
module Atpg_lite = Msoc_netlist.Atpg_lite
module Attr = Msoc_signal.Attr
module Soc = Msoc_soc.Soc
module Soc_schedule = Msoc_soc.Schedule
open Msoc_synth

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

(* Failed checks, reported once every section has printed. *)
let failures = ref []
let fail msg = failures := msg :: !failures

(* ------------------------------------------------------------------ *)
(* Figure 6: the experimental set-up, with the attribute propagation   *)
(* trace of the standard two-tone stimulus.                            *)
(* ------------------------------------------------------------------ *)

let figure6 () =
  section "Figure 6 — experimental set-up (signal path + attribute trace)";
  Format.printf "Amp -> Mixer (LO) -> LPF -> ADC -> 13-tap digital filter@.";
  Format.printf "  LO %.1f MHz, LPF fc %.0f kHz (clock %.1f MHz), ADC %d bit @@ %.0f kHz@."
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
    Plan.table1;
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
  let n_adc = 4096 in
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
  let trials = 50000 in
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
        Monte_carlo.sample_array_pooled ~pool ~trials ~rng:(Prng.create Propagate.figure4_seed)
          ~f:(Propagate.mixer_iip3_trial path ~strategy)
          ()
      in
      let rms = Msoc_stat.Describe.rms errs in
      let worst = Msoc_util.Floatx.max_abs errs in
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
  let parts = 4 in
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
            if within < List.length vs then
              fail
                (Printf.sprintf "virtual tester, %s: %s within budget %d/%d" label parameter
                   within (List.length vs));
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
    "Every synthesised measurement is executed on the waveform engine (stimulus@.\
     at the primary input, spectrum read at the digitised output), and every@.\
     result lands within its predicted worst-case budget under both strategies.@.\
     On the de-embedded rows (mixer IIP3, mixer P1dB, LPF cutoff) the adaptive@.\
     budgets are tighter and the max error is smaller — the paper's central@.\
     claim, verified end to end.  Path gain and LO frequency are measured@.\
     directly, the same under both.@."

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
      match Plan.population_of_spec m.Propagate.spec with
      | None -> ()
      | Some population ->
        let err = Propagate.err m in
        (match
           Coverage.threshold_rows ~population ~bound:m.Propagate.spec.Spec.bound ~err
             ~error:(Coverage.Uniform_err err)
         with
        | [ (_, at_tol); (_, tight); (_, loose) ] ->
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
  let samples = 2048 in
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
  let samples = 2048 in
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
  let patterns1 = 2048 in
  let patterns2 = 8192 in
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
  (* The expensive passes run on the domain pool (faults and their
     spectra distributed across domains); the detection records are
     identical to the serial path. *)
  let pool = Pool.get_default () in
  let pass1 =
    Digital_test.spectral_coverage ~pool config fir ~sample_rate:adc_rate ~input_codes:codes
      ~reference_codes:reference ~tone_freqs:all_excluded ~faults
  in
  Format.printf "pass 1 (%d patterns): coverage %.1f%% (%d/%d), floor %.1f dB@."
    patterns1
    (100.0 *. pass1.Digital_test.coverage)
    pass1.Digital_test.detected pass1.Digital_test.total pass1.Digital_test.noise_floor_db;
  (* Second pass with more patterns on the survivors (paper: 8192). *)
  let codes2, reference2, tones2, exclusions2 = capture patterns2 100 in
  let merged =
    Digital_test.second_pass ~pool config fir ~sample_rate:adc_rate ~input_codes:codes2
      ~reference_codes:reference2 ~tone_freqs:(tones2 @ exclusions2) ~previous:pass1
  in
  Format.printf "pass 2 (%d patterns on %d survivors): coverage %.1f%%@."
    patterns2
    (Array.length pass1.Digital_test.undetected)
    (100.0 *. merged.Digital_test.coverage);
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
  let samples = 2048 in
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
  let samples = 2048 in
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
  let samples = 2048 in
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
  let patterns = 2048 in
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
  let n_adc = 4096 in
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

(* ------------------------------------------------------------------ *)
(* SOC test schedule: greedy vs annealed makespan on the shipped SOC   *)
(* fixtures, at the canonical annealing defaults, beside the lower     *)
(* bound that certifies them.  An annealed/greedy ratio above 1 fails  *)
(* the run (annealing must never lose to greedy), and so does an       *)
(* annealed makespan below the bound (no schedule can beat it).        *)
(* ------------------------------------------------------------------ *)

let soc_schedule () =
  section "SOC schedule — test-time minimization under bus and power constraints";
  let t =
    Texttable.create
      ~headers:
        [ "SOC"; "Tests"; "Serial"; "Bound"; "Greedy"; "Annealed"; "Ratio"; "Greedy ms";
          "Annealed ms" ]
  in
  List.iter
    (fun name ->
      let soc = Option.get (Soc.find name) in
      let problem = Soc_schedule.problem_of_soc soc in
      let greedy = Soc_schedule.greedy problem in
      let annealed, _stats = Soc_schedule.anneal problem in
      (match Soc_schedule.check problem annealed with
      | Ok () -> ()
      | Error msg -> failwith ("soc-schedule: invalid annealed schedule: " ^ msg));
      let serial =
        Array.fold_left
          (fun acc (test : Soc_schedule.test) -> acc + test.Soc_schedule.cycles)
          0 problem.Soc_schedule.tests
      in
      let g = greedy.Soc_schedule.makespan and a = annealed.Soc_schedule.makespan in
      let bound = Soc_schedule.lower_bound problem in
      let ratio = float_of_int a /. float_of_int g in
      Texttable.add_row t
        [ name;
          string_of_int (Array.length problem.Soc_schedule.tests);
          string_of_int serial; string_of_int bound; string_of_int g; string_of_int a;
          Printf.sprintf "%.4f" ratio;
          Printf.sprintf "%.1f" (1000.0 *. Soc_schedule.seconds problem g);
          Printf.sprintf "%.1f" (1000.0 *. Soc_schedule.seconds problem a) ];
      if a > g then
        fail (Printf.sprintf "SOC schedule, %s: annealed/greedy %.4f > 1" name ratio);
      if a < bound then
        fail (Printf.sprintf "SOC schedule, %s: annealed %d < lower bound %d" name a bound))
    Soc.names;
  Texttable.print t;
  Format.printf
    "Serial is the sum of every priced test (application + wrapper load + fixture);@.\
     the makespans pack them under the SOC's test-bus and power constraints.  The@.\
     run fails if annealing ever loses to the greedy baseline (a ratio above 1).@."

let () =
  if Array.length Sys.argv > 1 then begin
    Printf.eprintf "usage: %s (it takes no argument)\n" Sys.argv.(0);
    exit 2
  end;
  Format.printf "Mixed-signal SOC path test synthesis — evaluation reproduction@.";
  figure6 ();
  table1 ();
  figure3 ();
  figure4 ();
  tester_validation ();
  figure2_and_5 ();
  table2 ();
  figure1 ();
  coverage_ideal ();
  coverage_noisy ();
  ablation_stimulus ();
  ablation_architecture ();
  ablation_window ();
  ablation_margin ();
  ablation_interface ();
  soc_schedule ();
  match List.rev !failures with
  | [] -> Format.printf "@.Done.@."
  | failed ->
    List.iter (Printf.eprintf "paper: FAIL: %s\n") failed;
    exit 1
