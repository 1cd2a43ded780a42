(* Writes every pinned fixture of test/golden/ except the paper's
   artefacts (bench/paper.exe) and the hand-written trace fixture into the
   current directory.  `dune runtest` runs it in the build directory and
   diffs each file byte for byte against its copy under test/golden/;
   after a deliberate change, `dune promote` copies the new files over the
   old.

   Each capture is fully deterministic: nominal part, fixed engine and
   annealing seeds, coherent stimulus at the standard test level, and the
   canonical schedule parameters (8 restarts, 400 iterations). *)
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

let write name contents =
  let oc = open_out_bin name in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let plan_text strategy =
  Format.asprintf "%a@." Plan.pp_summary
    (Plan.synthesize ~strategy (Path.default_receiver ()))

let tester_codes () =
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
  (* nominal part, then a Monte-Carlo sampled part: both deterministic *)
  let emit label part =
    let engine = Path.engine path part ~seed:42 ~samples:n_sim in
    let codes = Path.run_codes engine input in
    Array.iteri
      (fun i c -> Buffer.add_string buffer (Printf.sprintf "%s %d %d\n" label i c))
      codes
  in
  emit "nominal" (Path.nominal_part path);
  emit "sampled" (Path.sample_part path (Prng.create 7));
  Buffer.contents buffer

(* Every virtual-tester result, as exact hex floats: three topologies x
   two de-embedding strategies x {nominal part, part sampled from
   [Prng.create 7]}, at the default session seed and record length. *)
let measure_values () =
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
  Buffer.contents buffer

(* One MD5 of the IEEE bits of every output float of [rfft_into] per
   length, on a seeded real input, over every length from 2 to 33 and a
   spread of power-of-two and Bluestein lengths. *)
let fft_lengths =
  List.init 32 (fun i -> i + 2) @ [ 64; 100; 128; 255; 256; 300; 512; 1000; 1024; 2048; 4096 ]

let bits_digest arrays =
  let b = Buffer.create 4096 in
  List.iter (Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x))) arrays;
  Digest.to_hex (Digest.string (Buffer.contents b))

let fft_bits () =
  let buffer = Buffer.create 4096 in
  List.iter
    (fun n ->
      let rng = Prng.create n in
      let draw () = Prng.uniform rng ~lo:(-1.0) ~hi:1.0 in
      (* the real input is the stream's draws 2n .. 3n - 1: the first 2n
         are skipped, so each length's input stays the pinned one *)
      for _ = 1 to 2 * n do
        ignore (draw ())
      done;
      let real = Array.init n (fun _ -> draw ()) in
      let bins = (n / 2) + 1 in
      let re = Array.make bins 0.0 and im = Array.make bins 0.0 in
      Fft.rfft_into real ~re ~im;
      Printf.bprintf buffer "rfft_into %d %s\n" n (bits_digest [ re; im ]))
    fft_lengths;
  Buffer.contents buffer

(* The §5 spectral verdicts: the full [Digital_test.spectral_coverage]
   record on eight faultsim shapes (taps, samples, tones, stimulus seed;
   10-bit input and the verb's tones and levels), power-of-two and
   Bluestein lengths alike, every float as exact hex. *)
let faultsim_shapes =
  [ (5, 256, 1, 0); (5, 256, 2, 7); (7, 512, 1, 7); (9, 512, 2, 11); (3, 65, 1, 4);
    (4, 127, 2, 0); (5, 301, 2, 9); (6, 1000, 1, 2) ]

let faultsim_records () =
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
  Buffer.contents buffer

let () =
  write "plan_adaptive.txt" (plan_text Propagate.Adaptive);
  write "plan_nominal.txt" (plan_text Propagate.Nominal_gains);
  write "audit_adaptive.json"
    (Audit.to_json
       (Plan.audit (Plan.synthesize ~strategy:Propagate.Adaptive (Path.default_receiver ())))
    ^ "\n");
  write "tester_codes.txt" (tester_codes ());
  write "measure_values.txt" (measure_values ());
  write "fft_bits.txt" (fft_bits ());
  write "faultsim_records.txt" (faultsim_records ());
  (* reference-SOC schedule fixtures, at the canonical annealing defaults *)
  let problem = Schedule.problem_of_soc (Soc.reference ()) in
  let greedy = Schedule.greedy problem in
  let annealed = Schedule.anneal problem in
  write "soc_schedule.txt" (Schedule.render problem ~greedy ~annealed);
  write "soc_breakdown.txt" (Schedule.breakdown problem);
  write "soc_audit.json" (Audit.to_json (Schedule.audit (Soc.reference ())) ^ "\n")
