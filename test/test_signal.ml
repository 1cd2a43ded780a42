(* Unit tests for msoc_signal: the signal-attribute model. *)

open Msoc_signal
module I = Msoc_util.Interval

let approx eps = Alcotest.float eps

(* An exact tone, built as the analog stages build their spur tones. *)
let tone ~freq_hz ~power_dbm =
  { Attr.freq_hz = I.point freq_hz; power_dbm = I.point power_dbm; phase_rad = I.point 0.0 }

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
  let spur_tone = tone ~freq_hz:3e3 ~power_dbm:(-40.0) in
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
  let s = Attr.add_spur s Attr.Clock_spur (tone ~freq_hz:5e3 ~power_dbm:(-50.0)) in
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

let () =
  Alcotest.run "msoc_signal"
    [ ( "attr",
        [ Alcotest.test_case "constructors" `Quick test_constructors;
          Alcotest.test_case "total power" `Quick test_total_power_sums;
          Alcotest.test_case "snr" `Quick test_snr_tracks_noise;
          Alcotest.test_case "spurs" `Quick test_spur_bookkeeping;
          Alcotest.test_case "map_tones" `Quick test_map_tones_covers_spurs;
          Alcotest.test_case "accuracy accessors" `Quick test_accuracy_accessors ] ) ]
