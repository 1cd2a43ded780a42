(* Unit tests for msoc_signal: the signal-attribute model. *)

open Msoc_signal
module I = Msoc_util.Interval
module Prng = Msoc_util.Prng
module Units = Msoc_util.Units

let approx eps = Alcotest.float eps

let test_constructors () =
  let s = Attr.single_tone ~freq_hz:1e6 ~power_dbm:(-20.0) () in
  Alcotest.(check int) "one tone" 1 (List.length s.Attr.tones);
  let tt = Attr.two_tone ~f1_hz:1e6 ~f2_hz:1.1e6 ~power_dbm:(-20.0) () in
  Alcotest.(check int) "two tones" 2 (List.length tt.Attr.tones);
  let empty = Attr.silence () in
  Alcotest.(check int) "silence" 0 (List.length empty.Attr.tones);
  Alcotest.check (approx 1e-9) "thermal default" (-174.0) empty.Attr.noise_dbm

let test_total_power_sums () =
  (* two equal tones: composite power is +3.01 dB *)
  let s = Attr.two_tone ~f1_hz:1e3 ~f2_hz:2e3 ~power_dbm:(-10.0) () in
  Alcotest.check (approx 0.02) "3 dB sum" (-6.99) (Attr.total_tone_power_dbm s);
  Alcotest.check (approx 1e-6) "empty" (-400.0) (Attr.total_tone_power_dbm (Attr.silence ()))

let test_snr_tracks_noise () =
  let s = Attr.single_tone ~noise_dbm:(-60.0) ~freq_hz:1e3 ~power_dbm:(-10.0) () in
  Alcotest.check (approx 1e-6) "snr" 50.0 (I.mid (Attr.snr_db s))

let test_spur_bookkeeping () =
  let s = Attr.single_tone ~freq_hz:1e3 ~power_dbm:0.0 () in
  let spur_tone = Attr.tone ~freq_hz:3e3 ~power_dbm:(-40.0) () in
  let s = Attr.add_spur s (Attr.Harmonic 3) spur_tone in
  Alcotest.(check int) "tones untouched" 1 (List.length s.Attr.tones);
  match s.Attr.spurs with
  | [ spur ] ->
    Alcotest.check (approx 1e-9) "spur power" (-40.0) (I.mid spur.Attr.tone.Attr.power_dbm);
    Alcotest.check (approx 1e-9) "spur frequency" 3e3 (I.mid spur.Attr.tone.Attr.freq_hz);
    (match spur.Attr.origin with
    | Attr.Harmonic 3 -> ()
    | Attr.Harmonic _ | Attr.Intermod3 | Attr.Lo_leakage | Attr.Clock_spur | Attr.Alias ->
      Alcotest.fail "wrong origin")
  | _ -> Alcotest.fail "expected one spur"

let test_map_tones_covers_spurs () =
  let s = Attr.single_tone ~freq_hz:1e3 ~power_dbm:0.0 () in
  let s = Attr.add_spur s Attr.Clock_spur (Attr.tone ~freq_hz:5e3 ~power_dbm:(-50.0) ()) in
  let shifted =
    Attr.map_tones s ~f:(fun tn -> { tn with Attr.freq_hz = I.scale 2.0 tn.Attr.freq_hz })
  in
  (match shifted.Attr.tones with
  | [ tn ] -> Alcotest.check (approx 1e-9) "tone scaled" 2e3 (I.mid tn.Attr.freq_hz)
  | _ -> Alcotest.fail "tone count");
  match shifted.Attr.spurs with
  | [ spur ] -> Alcotest.check (approx 1e-9) "spur scaled" 10e3 (I.mid spur.Attr.tone.Attr.freq_hz)
  | _ -> Alcotest.fail "spur count"

let test_accuracy_accessors () =
  let tn =
    { Attr.freq_hz = I.of_err 1e6 ~err:200.0;
      power_dbm = I.of_err (-10.0) ~err:1.5;
      phase_rad = I.point 0.0 }
  in
  Alcotest.check (approx 1e-9) "freq accuracy" 200.0 (Attr.freq_accuracy_hz tn);
  Alcotest.check (approx 1e-9) "power accuracy" 1.5 (Attr.power_accuracy_db tn)

let test_waveform_realises_attributes () =
  (* The synthesized waveform's spectrum must reproduce the tracked tone
     power and noise floor. *)
  let fs = 1e6 and n = 4096 in
  let f = Msoc_dsp.Tone.coherent_frequency ~sample_rate:fs ~samples:n ~target:100e3 in
  let s = Attr.single_tone ~noise_dbm:(-60.0) ~freq_hz:f ~power_dbm:(-10.0) () in
  let rng = Prng.create 44 in
  let wave = Attr.waveform s ~sample_rate:fs ~samples:n ~rng in
  let sp = Msoc_dsp.Spectrum.analyze ~sample_rate:fs wave in
  let tone_power_v2 = Msoc_dsp.Spectrum.tone_power sp ~freq:f in
  let expected_v2 =
    let vp = Units.vpeak_of_dbm (-10.0) in
    vp *. vp /. 2.0
  in
  Alcotest.check (approx (expected_v2 /. 20.0)) "tone power realised" expected_v2 tone_power_v2;
  let snr = Msoc_dsp.Metrics.snr_db sp ~fundamental:f in
  Alcotest.check (Alcotest.float 1.5) "snr realised" 50.0 snr

let test_waveform_dc () =
  let s = { (Attr.silence ~noise_dbm:(-400.0) ()) with Attr.dc_volts = I.point 0.25 } in
  let rng = Prng.create 1 in
  let wave = Attr.waveform s ~sample_rate:1e3 ~samples:16 ~rng in
  Array.iter (fun v -> Alcotest.check (approx 1e-9) "dc" 0.25 v) wave

let test_pp_smoke () =
  let s = Attr.two_tone ~f1_hz:90e3 ~f2_hz:110e3 ~power_dbm:(-27.0) () in
  let s = Attr.add_spur s Attr.Intermod3 (Attr.tone ~freq_hz:70e3 ~power_dbm:(-80.0) ()) in
  let lines = String.split_on_char '\n' (Format.asprintf "%a" Attr.pp s) in
  (* each tone is one line: frequency @ power (accuracies) *)
  Alcotest.(check bool) "tone on one line" true
    (List.exists (String.starts_with ~prefix:"  9e+04 Hz @ -27.00 dBm") lines)

let () =
  Alcotest.run "msoc_signal"
    [ ( "attr",
        [ Alcotest.test_case "constructors" `Quick test_constructors;
          Alcotest.test_case "total power" `Quick test_total_power_sums;
          Alcotest.test_case "snr" `Quick test_snr_tracks_noise;
          Alcotest.test_case "spurs" `Quick test_spur_bookkeeping;
          Alcotest.test_case "map_tones" `Quick test_map_tones_covers_spurs;
          Alcotest.test_case "accuracy accessors" `Quick test_accuracy_accessors;
          Alcotest.test_case "waveform realises attributes" `Quick
            test_waveform_realises_attributes;
          Alcotest.test_case "waveform dc" `Quick test_waveform_dc;
          Alcotest.test_case "pp" `Quick test_pp_smoke ] ) ]
