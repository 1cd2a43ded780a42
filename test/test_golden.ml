(* Golden-output tests pinning observable behaviour: the default receiver's
   synthesized plan text (both strategies), the adaptive audit trail, the
   virtual tester's ADC codes, every topology's virtual-tester measurement
   results, the FFT's output bits, the §5 spectral fault-detection records,
   and the reference SOC's schedule table,
   per-core application-time breakdown, and audit JSON at the canonical
   annealing parameters.  The receiver fixtures under golden/ were captured
   before the stage-graph refactor; byte-identity here is the proof that the
   generic core reproduces the historical five-block receiver exactly.
   Regenerate with: dune exec test/golden_gen/golden_gen.exe -- test/golden *)

module Path = Msoc_analog.Path
module Topology = Msoc_analog.Topology
module Context = Msoc_analog.Context
module Tone = Msoc_dsp.Tone
module Fft = Msoc_dsp.Fft
module Fault = Msoc_netlist.Fault
module Units = Msoc_util.Units
module Prng = Msoc_util.Prng
module Soc = Msoc_soc.Soc
module Schedule = Msoc_soc.Schedule
open Msoc_synth

let read_fixture name =
  let ic = open_in_bin (Filename.concat "golden" name) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_bytes fixture actual =
  let expected = read_fixture fixture in
  if not (String.equal expected actual) then begin
    (* Locate the first differing line for a readable failure message. *)
    let exp_lines = String.split_on_char '\n' expected in
    let act_lines = String.split_on_char '\n' actual in
    let rec first_diff i = function
      | e :: es, a :: as_ ->
        if String.equal e a then first_diff (i + 1) (es, as_)
        else Some (i, e, a)
      | e :: _, [] -> Some (i, e, "<missing>")
      | [], a :: _ -> Some (i, "<missing>", a)
      | [], [] -> None
    in
    (match first_diff 1 (exp_lines, act_lines) with
    | Some (line, e, a) ->
      Alcotest.failf "%s differs at line %d:\n  expected: %s\n  actual:   %s"
        fixture line e a
    | None -> Alcotest.failf "%s differs (same lines, different bytes)" fixture)
  end

let plan_text strategy =
  let path = Path.default_receiver () in
  Format.asprintf "%a@." Plan.pp_summary (Plan.synthesize ~strategy path)

let test_plan_adaptive () = check_bytes "plan_adaptive.txt" (plan_text Propagate.Adaptive)

let test_plan_nominal () =
  check_bytes "plan_nominal.txt" (plan_text Propagate.Nominal_gains)

let test_audit_adaptive () =
  let plan = Plan.synthesize ~strategy:Propagate.Adaptive (Path.default_receiver ()) in
  check_bytes "audit_adaptive.json" (Audit.to_json (Plan.audit plan) ^ "\n")

(* Mirrors test/golden_gen/golden_gen.ml — the fixture regenerator. *)
let test_tester_codes () =
  let path = Path.default_receiver () in
  let fs = path.Path.ctx.Context.sim_rate_hz in
  let decim = Path.decimation path in
  let adc_rate = Path.adc_rate_hz path in
  let n_adc = 512 in
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
  let buffer = Buffer.create (1024 * 16) in
  let emit label part =
    let engine = Path.engine path part ~seed:42 ~samples:n_sim in
    let codes = Path.run_codes engine input in
    Array.iteri (fun i c -> Buffer.add_string buffer (Printf.sprintf "%s %d %d\n" label i c)) codes
  in
  emit "nominal" (Path.nominal_part path);
  emit "sampled" (Path.sample_part path (Prng.create 7));
  check_bytes "tester_codes.txt" (Buffer.contents buffer)

(* Mirrors golden_gen's [measure_values]: every topology x strategy x
   {nominal, sampled} part, each measured value as an exact hex float. *)
let test_measure_values () =
  let buffer = Buffer.create 4096 in
  List.iter
    (fun topology ->
      let path = Option.get (Topology.build topology) in
      List.iter
        (fun (strategy_name, strategy) ->
          List.iter
            (fun (part_name, part) ->
              List.iter
                (fun v ->
                  Buffer.add_string buffer
                    (Printf.sprintf "%s %s %s | %s | %h\n" topology strategy_name part_name
                       v.Measure.parameter v.Measure.measured))
                (Measure.validate_part path part ~strategy))
            [ ("nominal", Path.nominal_part path);
              ("sampled", Path.sample_part path (Prng.create 7)) ])
        [ ("nominal", Propagate.Nominal_gains); ("adaptive", Propagate.Adaptive) ])
    [ "default"; "sigma-delta"; "amp-bypass" ];
  check_bytes "measure_values.txt" (Buffer.contents buffer)

(* Mirrors golden_gen's [fft_bits]: one MD5 of the output floats' IEEE
   bits per (transform, length), on seeded inputs. *)
let fft_lengths =
  List.init 33 (fun i -> i + 1) @ [ 64; 100; 128; 255; 256; 300; 512; 1000; 1024; 2048; 4096 ]

let bits_digest arrays =
  let b = Buffer.create 4096 in
  List.iter (Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x))) arrays;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_fft_bits () =
  let buffer = Buffer.create 4096 in
  List.iter
    (fun n ->
      let rng = Prng.create n in
      let draw () = Prng.uniform rng ~lo:(-1.0) ~hi:1.0 in
      let x =
        Array.init n (fun _ ->
            let re = draw () in
            let im = draw () in
            { Complex.re; im })
      in
      let real = Array.init n (fun _ -> draw ()) in
      let complex_digest y =
        bits_digest
          [ Array.map (fun (c : Complex.t) -> c.re) y; Array.map (fun (c : Complex.t) -> c.im) y ]
      in
      Printf.bprintf buffer "fft %d %s\n" n (complex_digest (Fft.fft x));
      Printf.bprintf buffer "ifft %d %s\n" n (complex_digest (Fft.ifft x));
      if n >= 2 then begin
        let bins = (n / 2) + 1 in
        let re = Array.make bins 0.0 and im = Array.make bins 0.0 in
        Fft.rfft_into real ~re ~im;
        Printf.bprintf buffer "rfft_into %d %s\n" n (bits_digest [ re; im ])
      end)
    fft_lengths;
  check_bytes "fft_bits.txt" (Buffer.contents buffer)

(* Mirrors golden_gen's [faultsim_records]: the full spectral-coverage
   record on eight faultsim shapes (taps, samples, tones, stimulus seed). *)
let faultsim_shapes =
  [ (5, 256, 1, 0); (5, 256, 2, 7); (7, 512, 1, 7); (9, 512, 2, 11); (3, 65, 1, 4);
    (4, 127, 2, 0); (5, 301, 2, 9); (6, 1000, 1, 2) ]

let test_faultsim_records () =
  let buffer = Buffer.create 4096 in
  List.iter
    (fun (taps, samples, tones, seed) ->
      let config = { Digital_test.default_config with Digital_test.taps; input_bits = 10 } in
      let fir = Digital_test.build config in
      let faults = Digital_test.collapsed_faults fir in
      let fs = 1e6 in
      let freqs =
        List.map
          (fun target -> Digital_test.coherent_tone ~sample_rate:fs ~samples ~target)
          (if tones = 1 then [ 90e3 ] else [ 90e3; 110e3 ])
      in
      let rng = if seed = 0 then None else Some (Prng.create seed) in
      let codes =
        Digital_test.ideal_codes ?rng config ~sample_rate:fs ~samples ~freqs
          ~amplitude_fs:(0.9 /. float_of_int tones)
      in
      let det =
        Digital_test.spectral_coverage config fir ~sample_rate:fs ~input_codes:codes
          ~reference_codes:codes ~tone_freqs:freqs ~faults
      in
      Printf.bprintf buffer "shape %d/%d/%d seed %d: total %d detected %d floor %h\n" taps
        samples tones seed det.Digital_test.total det.Digital_test.detected
        det.Digital_test.noise_floor_db;
      Array.iteri
        (fun i fault ->
          Printf.bprintf buffer "  %s %h\n" (Format.asprintf "%a" Fault.pp fault)
            det.Digital_test.undetected_max_dev_lsb.(i))
        det.Digital_test.undetected)
    faultsim_shapes;
  check_bytes "faultsim_records.txt" (Buffer.contents buffer)

(* ---- reference SOC: schedule, breakdown, audit ---- *)

let reference_problem = lazy (Schedule.problem_of_soc (Soc.reference ()))

let test_soc_schedule () =
  let problem = Lazy.force reference_problem in
  let greedy = Schedule.greedy problem in
  let annealed = Schedule.anneal problem in
  check_bytes "soc_schedule.txt" (Schedule.render problem ~greedy ~annealed)

let test_soc_breakdown () =
  check_bytes "soc_breakdown.txt" (Schedule.breakdown (Lazy.force reference_problem))

let test_soc_audit () =
  check_bytes "soc_audit.json" (Audit.to_json (Schedule.audit (Soc.reference ())) ^ "\n")

let () =
  Alcotest.run "golden"
    [ ( "default-receiver",
        [ Alcotest.test_case "plan text (adaptive)" `Quick test_plan_adaptive;
          Alcotest.test_case "plan text (nominal-gains)" `Quick test_plan_nominal;
          Alcotest.test_case "audit JSON (adaptive)" `Quick test_audit_adaptive;
          Alcotest.test_case "virtual-tester ADC codes" `Quick test_tester_codes ] );
      ( "virtual-tester",
        [ Alcotest.test_case "measured values, every topology" `Quick test_measure_values ] );
      ( "spectral-test",
        [ Alcotest.test_case "fft output bits" `Quick test_fft_bits;
          Alcotest.test_case "faultsim detection records" `Quick test_faultsim_records ] );
      ( "reference-soc",
        [ Alcotest.test_case "schedule table" `Quick test_soc_schedule;
          Alcotest.test_case "per-core breakdown" `Quick test_soc_breakdown;
          Alcotest.test_case "audit JSON" `Quick test_soc_audit ] ) ]
