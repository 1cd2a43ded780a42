module Fir = Msoc_dsp.Fir
module Fir_netlist = Msoc_netlist.Fir_netlist
module Fault = Msoc_netlist.Fault
module Fault_sim = Msoc_netlist.Fault_sim
module Spectrum = Msoc_dsp.Spectrum
module Window = Msoc_dsp.Window
module Tone = Msoc_dsp.Tone
module Obs = Msoc_obs.Obs
module Progress = Msoc_obs.Progress

(* Heartbeat cells for the spectral judging phase (one add per verdict —
   a verdict is a full windowed FFT, so the cadence is coarse). *)
let prog_judged = Progress.cell "coverage.judged"
let prog_judged_total = Progress.cell "coverage.judged_total"
let prog_hits = Progress.cell "coverage.detected"

type config = {
  taps : int;
  coeff_bits : int;
  input_bits : int;
  cutoff : float;
  window : Window.kind;
  tolerance_db : float;
  uncertainty_margin_db : float;
  exclude_half_width : int;
}

let default_config =
  { taps = 13;
    coeff_bits = 8;
    input_bits = 12;
    cutoff = 0.12;
    window = Window.Hann;
    tolerance_db = 6.0;
    uncertainty_margin_db = 8.0;
    exclude_half_width = 3 }

let quantized config =
  let design = Fir.lowpass ~taps:config.taps ~cutoff:config.cutoff () in
  Fir.quantize design.Fir.taps ~bits:config.coeff_bits

let build config =
  let codes, scale = quantized config in
  Fir_netlist.create ~coeffs:codes ~width_in:config.input_bits ~scale ()

let max_input_bits config = Fir_netlist.max_width_in (fst (quantized config))

let collapsed_faults fir =
  let circuit = fir.Fir_netlist.circuit in
  Fault.collapse circuit (Fault.universe circuit)

let activated ?pool fir ~codes ~faults =
  let drive sim cycle = Fir_netlist.drive fir sim codes.(cycle) in
  Fault_sim.detect_exact ?pool fir.Fir_netlist.circuit ~output:Fir_netlist.output_bus_name
    ~drive ~samples:(Array.length codes) ~faults

let activation_prefix ?pool fir ~codes ~faults =
  let drive sim cycle = Fir_netlist.drive fir sim codes.(cycle) in
  let cycles =
    Fault_sim.detect_cycles ?pool fir.Fir_netlist.circuit
      ~output:Fir_netlist.output_bus_name ~drive ~samples:(Array.length codes) ~faults
  in
  1 + Array.fold_left max (-1) cycles

let coherent_tone ~sample_rate ~samples ~target =
  Tone.coherent_frequency ~sample_rate ~samples ~target

let ideal_codes ?rng config ~sample_rate ~samples ~freqs ~amplitude_fs =
  let half_range = float_of_int (1 lsl (config.input_bits - 1)) -. 1.0 in
  let amplitude = amplitude_fs *. half_range in
  let components =
    List.map
      (fun freq ->
        match rng with
        | None -> Tone.component ~freq ~amplitude ()
        | Some rng ->
          (* randomised (but seeded) starting phases: distinct stimuli per
             seed while the tone set and coherence stay unchanged *)
          let phase = Msoc_util.Prng.uniform rng ~lo:0.0 ~hi:Msoc_util.Units.two_pi in
          Tone.component ~phase ~freq ~amplitude ())
      freqs
  in
  let wave = Tone.synthesize ~sample_rate ~samples components in
  Array.map
    (fun v ->
      let code = int_of_float (Float.round v) in
      let lo = -(1 lsl (config.input_bits - 1)) and hi = (1 lsl (config.input_bits - 1)) - 1 in
      if code < lo then lo else if code > hi then hi else code)
    wave

let output_to_input_units fir stream =
  (* Undo the coefficient scale so a unity-DC-gain filter output is in
     input-code units; keeps spectra comparable across coefficient widths. *)
  let scale = fir.Fir_netlist.scale in
  Array.map (fun y -> float_of_int y *. scale) stream

let output_spectrum config fir ~sample_rate stream =
  Spectrum.analyze ~window:config.window ~sample_rate (output_to_input_units fir stream)

type detection = {
  total : int;
  detected : int;
  coverage : float;
  undetected : Fault.t array;
  undetected_max_dev_lsb : float array;
  noise_floor_db : float;
}

(* DC and the [exclude_half_width] bins around each stimulus tone. *)
let excluded_bins config spectrum ~tone_freqs =
  let nbins = Spectrum.bin_count spectrum in
  let excluded = Array.make nbins false in
  excluded.(0) <- true;
  List.iter
    (fun freq ->
      let center = Spectrum.bin_of_frequency spectrum freq in
      for k = max 0 (center - config.exclude_half_width)
          to min (nbins - 1) (center + config.exclude_half_width) do
        excluded.(k) <- true
      done)
    tone_freqs;
  excluded

(* The estimated per-bin uncertainty: the noise level by which the actual
   stimulus departs from the reference one (§4.1 — "the level of total
   noise at the inputs of the digital filter is estimated through spectral
   analysis of the input patterns"), shaped by the filter's magnitude
   response since pass-band noise survives while stop-band noise does not.
   A numerical floor 140 dB under the carrier guards against comparing
   FFT round-off.  The result is the per-bin clamping level of the
   comparison: not flat, because the filter shapes the input noise —
   pass-band bins carry the full input noise while stop-band bins are
   quiet. *)
let noise_profile config fir ~sample_rate ~excluded ~input_codes ~reference_codes ~golden =
  assert (Array.length input_codes = Array.length reference_codes);
  let difference =
    Array.init (Array.length input_codes) (fun i ->
        float_of_int (input_codes.(i) - reference_codes.(i)))
  in
  let nbins = Spectrum.bin_count golden in
  (* Per-bin estimate of the input-referred uncertainty: the analog noise
     is coloured (the channel filter shapes it before the ADC), so a local
     sliding-window median of the difference spectrum is taken instead of
     one global floor.  Excluded (tone/spur) bins do not contaminate it. *)
  let input_noise_db =
    if Array.for_all (fun d -> d = 0.0) difference then Array.make nbins (-400.0)
    else begin
      let sp = Spectrum.analyze ~window:config.window ~sample_rate difference in
      let half_window = 16 in
      Array.init nbins (fun k ->
          let lo = max 1 (k - half_window) and hi = min (nbins - 1) (k + half_window) in
          let kept = ref [] in
          for j = lo to hi do
            if not excluded.(j) then kept := sp.Spectrum.bins.(j) :: !kept
          done;
          match !kept with
          | [] -> -400.0
          | values ->
            let sorted = List.sort compare values in
            Spectrum.db_of_power (List.nth sorted (List.length sorted / 2)))
    end
  in
  let peak_db = Spectrum.power_db golden (Spectrum.peak_bin golden) in
  let numerical_floor = peak_db -. 140.0 in
  let coeffs =
    Array.map (fun c -> float_of_int c *. fir.Fir_netlist.scale) fir.Fir_netlist.coeffs
  in
  Array.init nbins (fun k ->
      let freq_norm = float_of_int k /. float_of_int golden.Spectrum.length in
      let shaped_noise = input_noise_db.(k) +. Fir.magnitude_db coeffs ~freq:freq_norm in
      Float.max shaped_noise numerical_floor +. config.uncertainty_margin_db)

(* The judge of one run, prepared once from the golden side: the golden
   spectrum (ideal stimulus through the exact behavioural model) and the
   noise estimate per §4.1 (spectral analysis of the input patterns,
   propagated through the filter's known magnitude response), folded into
   a {!Spectrum.mask}; with it, the worst (pass-band) floor over the
   compared bins, which the detection record reports. *)
let prepare config fir ~sample_rate ~input_codes ~reference_codes ~tone_freqs =
  let golden_stream = Fir_netlist.response fir reference_codes in
  let golden = output_spectrum config fir ~sample_rate golden_stream in
  let excluded = excluded_bins config golden ~tone_freqs in
  let floor_db =
    noise_profile config fir ~sample_rate ~excluded ~input_codes ~reference_codes ~golden
  in
  let worst_floor = ref neg_infinity in
  for k = 1 to Array.length floor_db - 1 do
    if not excluded.(k) then worst_floor := Float.max !worst_floor floor_db.(k)
  done;
  ( Spectrum.mask golden ~floor_db ~excluded ~tolerance_db:config.tolerance_db,
    !worst_floor )

let max_deviation good faulty =
  let dev = ref 0 in
  for i = 0 to Array.length good - 1 do
    let d = abs (faulty.(i) - good.(i)) in
    if d > !dev then dev := d
  done;
  !dev

let spectral_coverage ?pool config fir ~sample_rate ~input_codes ~reference_codes ~tone_freqs
    ~faults =
  let samples = Array.length input_codes in
  assert (samples >= 64);
  let mask, worst_floor =
    prepare config fir ~sample_rate ~input_codes ~reference_codes ~tone_freqs
  in
  let good_stream = Fir_netlist.response fir input_codes in
  Progress.set prog_judged_total (float_of_int (Array.length faults));
  (* One verdict: the spectral test, then — for an escape — its largest
     output deviation from the good stream, in input-referred LSBs. *)
  let judge stream =
    Obs.span "digital_test.judge" @@ fun () ->
    if Spectrum.departs mask ~scale:fir.Fir_netlist.scale stream then (true, 0.0)
    else (false, float_of_int (max_deviation good_stream stream) *. fir.Fir_netlist.scale)
  in
  (* A fault that leaves the output untouched (unactivated, or masked
     downstream) yields a stream equal to the good one: that verdict is
     judged once, here, and shared. *)
  let good_verdict = judge good_stream in
  (* Each stream is judged on the worker that simulated it, before that
     worker's next fault reuses the buffer; verdicts come back in fault
     order at every pool size. *)
  let on_fault _index _fault stream =
    let verdict =
      if stream = good_stream then begin
        Obs.count "digital_test.shared_verdicts";
        good_verdict
      end
      else judge stream
    in
    (* heartbeat: atomic adds, safe from any judging domain *)
    Progress.add prog_judged 1.0;
    if fst verdict then Progress.add prog_hits 1.0;
    verdict
  in
  let drive sim cycle = Fir_netlist.drive fir sim input_codes.(cycle) in
  let _, verdicts =
    Fault_sim.observe ?pool fir.Fir_netlist.circuit ~output:Fir_netlist.output_bus_name ~drive
      ~samples ~faults ~on_fault
  in
  let detected = ref 0 and undetected = ref [] and undetected_dev = ref [] in
  for i = Array.length faults - 1 downto 0 do
    match verdicts.(i) with
    | true, _ -> incr detected
    | false, dev ->
      undetected := faults.(i) :: !undetected;
      undetected_dev := dev :: !undetected_dev
  done;
  let detected = !detected in
  (* [on_fault] ran once per class of equivalent faults; the heartbeat
     ends crediting every member *)
  Progress.set prog_judged (float_of_int (Array.length faults));
  Progress.set prog_hits (float_of_int detected);
  { total = Array.length faults;
    detected;
    coverage = float_of_int detected /. float_of_int (max 1 (Array.length faults));
    undetected = Array.of_list !undetected;
    undetected_max_dev_lsb = Array.of_list !undetected_dev;
    noise_floor_db = worst_floor }

let false_alarm config fir ~sample_rate ~input_codes ~reference_codes ~tone_freqs
    ~verification_codes =
  let mask, _ = prepare config fir ~sample_rate ~input_codes ~reference_codes ~tone_freqs in
  Spectrum.departs mask ~scale:fir.Fir_netlist.scale
    (Fir_netlist.response fir verification_codes)

let second_pass ?pool config fir ~sample_rate ~input_codes ~reference_codes ~tone_freqs ~previous =
  let rerun =
    spectral_coverage ?pool config fir ~sample_rate ~input_codes ~reference_codes ~tone_freqs
      ~faults:previous.undetected
  in
  let detected = previous.detected + rerun.detected in
  { total = previous.total;
    detected;
    coverage = float_of_int detected /. float_of_int (max 1 previous.total);
    undetected = rerun.undetected;
    undetected_max_dev_lsb = rerun.undetected_max_dev_lsb;
    noise_floor_db = rerun.noise_floor_db }
