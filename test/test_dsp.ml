(* Unit and property tests for msoc_dsp. *)

open Msoc_dsp
module Prng = Msoc_util.Prng
module Obs = Msoc_obs.Obs
module Trace = Msoc_obs.Trace

let approx eps = Alcotest.float eps

let max_complex_err a b =
  let err = ref 0.0 in
  Array.iteri (fun i c -> err := Float.max !err (Complex.norm (Complex.sub c b.(i)))) a;
  !err

(* ---- FFT: the real-input transform, checked against the O(N^2) DFT ---- *)

let random_real g n = Array.init n (fun _ -> Prng.float g -. 0.5)

(* [rfft_into] into fresh arrays, as complex bins 0 .. N/2 *)
let rfft x =
  let bins = (Array.length x / 2) + 1 in
  let re = Array.make bins 0.0 and im = Array.make bins 0.0 in
  Fft.rfft_into x ~re ~im;
  Array.init bins (fun k -> { Complex.re = re.(k); im = im.(k) })

(* the reference: the same bins of the DFT of the real signal *)
let dft_half x =
  let n = Array.length x in
  Array.sub (Fft.dft (Array.map (fun v -> { Complex.re = v; im = 0.0 }) x)) 0 ((n / 2) + 1)

let rfft_err x = max_complex_err (rfft x) (dft_half x)

let test_power_of_two_helpers () =
  Alcotest.(check bool) "1 is pow2" true (Fft.is_power_of_two 1);
  Alcotest.(check bool) "1024 is pow2" true (Fft.is_power_of_two 1024);
  Alcotest.(check bool) "48 is not" false (Fft.is_power_of_two 48);
  Alcotest.(check bool) "0 is not" false (Fft.is_power_of_two 0)

let test_fft_matches_dft_pow2 () =
  let g = Prng.create 1 in
  Alcotest.(check bool) "rfft_into = dft (64)" true (rfft_err (random_real g 64) < 1e-11)

let test_fft_matches_dft_bluestein () =
  (* odd lengths run a full-length Bluestein transform, even lengths whose
     half is not a power of two a half-length one *)
  let g = Prng.create 2 in
  List.iter
    (fun n ->
      let err = rfft_err (random_real g n) in
      if err >= 1e-10 then Alcotest.failf "bluestein mismatch at n=%d (%g)" n err)
    [ 3; 5; 12; 17; 48; 100; 63 ]

let test_fft_impulse () =
  (* a delta transforms to all ones *)
  let x = Array.make 16 0.0 in
  x.(0) <- 1.0;
  Array.iter
    (fun (c : Complex.t) ->
      Alcotest.check (approx 1e-12) "re" 1.0 c.Complex.re;
      Alcotest.check (approx 1e-12) "im" 0.0 c.Complex.im)
    (rfft x)

let test_fft_linearity () =
  let g = Prng.create 3 in
  let x = random_real g 32 and y = random_real g 32 in
  let fx = rfft x and fy = rfft y and fsum = rfft (Array.mapi (fun i v -> v +. y.(i)) x) in
  let expected = Array.mapi (fun k c -> Complex.add c fy.(k)) fx in
  Alcotest.(check bool) "linear" true (max_complex_err fsum expected < 1e-11)

let test_parseval () =
  (* a real signal's spectrum is Hermitian: bins 1 .. N/2 - 1 stand for
     their mirrors too, DC and Nyquist only for themselves *)
  let g = Prng.create 4 in
  let n = 128 in
  let x = random_real g n in
  let time_energy = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 x in
  let freq_energy =
    Array.fold_left ( +. ) 0.0
      (Array.mapi
         (fun k c -> (if k = 0 || k = n / 2 then 1.0 else 2.0) *. Complex.norm2 c)
         (rfft x))
    /. float_of_int n
  in
  Alcotest.check (approx 1e-9) "parseval" time_energy freq_energy

let test_rfft_hermitian_consistency () =
  (* exactly the N/2 + 1 non-redundant bins are written, and DC and
     Nyquist of a real signal are real *)
  let g = Prng.create 5 in
  let x = random_real g 64 in
  let re = Array.make 40 nan and im = Array.make 40 nan in
  Fft.rfft_into x ~re ~im;
  for k = 0 to 32 do
    if Float.is_nan re.(k) || Float.is_nan im.(k) then Alcotest.failf "bin %d not written" k
  done;
  for k = 33 to 39 do
    if not (Float.is_nan re.(k) && Float.is_nan im.(k)) then
      Alcotest.failf "cell %d past the last bin written" k
  done;
  Alcotest.check (approx 1e-12) "DC is real" 0.0 im.(0);
  Alcotest.check (approx 1e-12) "Nyquist is real" 0.0 im.(32)

let prop_rfft_matches_dft =
  (* the real transform is the non-redundant prefix of the full complex
     transform (the reference DFT) at every length: even (pack-two-reals)
     and odd (full transform), radix-2 and Bluestein underneath *)
  QCheck.Test.make ~name:"rfft = fft prefix for arbitrary sizes" ~count:80
    (QCheck.int_range 2 300) (fun n ->
      let g = Prng.create (5000 + n) in
      rfft_err (random_real g n) < 1e-9)

let test_rfft_explicit_sizes () =
  (* even sizes take the pack-two-reals half-size path, odd sizes the full
     split transform; cover pow2 and Bluestein on both, plus the two
     production lengths (4096-point capture, 1000-point plan) *)
  List.iter
    (fun n ->
      let g = Prng.create (7000 + n) in
      let err = rfft_err (random_real g n) in
      if err >= 1e-9 then Alcotest.failf "n=%d rfft_into departs from dft (%g)" n err)
    [ 2; 3; 5; 8; 9; 15; 100; 101; 256; 999; 1000; 4096 ]

let test_rfft_into_reuse () =
  (* reusing the caller's output arrays (plus the per-domain scratch
     underneath) across calls must not leak state between transforms *)
  let g = Prng.create 8080 in
  let x1 = random_real g 96 and x2 = random_real g 96 in
  let re = Array.make 49 0.0 and im = Array.make 49 0.0 in
  let check label x =
    Fft.rfft_into x ~re ~im;
    Array.iteri
      (fun k (c : Complex.t) ->
        if c.Complex.re <> re.(k) || c.Complex.im <> im.(k) then
          Alcotest.failf "%s: bin %d differs from a fresh transform" label k)
      (rfft x)
  in
  check "first" x1;
  check "second" x2;
  check "first again" x1

(* Plan-table traffic while [f] runs: the fft.plan.<kind>.<hit|miss>
   counters of the telemetry trace. *)
let plan_counts f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      f ();
      match Trace.parse (Obs.jsonl ()) with
      | Ok t ->
        fun name -> Option.value ~default:0.0 (List.assoc_opt ("fft.plan." ^ name) t.Trace.counters)
      | Error e -> Alcotest.failf "the trace does not parse: %s" e)

let test_plan_cache_bitwise () =
  (* a transform through a warm plan must equal the cold-cache transform
     bit for bit, for both the radix-2 and the Bluestein paths *)
  List.iter
    (fun n ->
      let g = Prng.create (1000 + n) in
      let x = random_real g n in
      Fft.clear_plan_cache ();
      let cold = ref [||] in
      let count = plan_counts (fun () -> cold := rfft x) in
      Alcotest.(check bool) (Printf.sprintf "n=%d cold transform builds plans" n) true
        (count "rfft.miss" = 1.0);
      let warm = ref [||] in
      let count = plan_counts (fun () -> warm := rfft x) in
      Alcotest.(check bool) (Printf.sprintf "n=%d warm transform builds none" n) true
        (count "rfft.miss" = 0.0 && count "pow2.miss" = 0.0 && count "bluestein.miss" = 0.0);
      Alcotest.(check bool) (Printf.sprintf "n=%d warm = cold" n) true (!warm = !cold))
    [ 64; 256; 100; 1000 ]

let test_plan_cache_interleaved () =
  (* plans for different lengths must not corrupt each other *)
  let g = Prng.create 9 in
  let xs = List.map (random_real g) [ 64; 96; 128; 100 ] in
  Fft.clear_plan_cache ();
  let fresh = ref [] in
  let first = plan_counts (fun () -> fresh := List.map rfft xs) in
  let again = ref [] in
  let second = plan_counts (fun () -> again := List.map rfft (xs @ xs)) in
  List.iteri
    (fun i a ->
      let b = List.nth !again (i + List.length xs) in
      Alcotest.(check bool) (Printf.sprintf "signal %d stable" i) true (a = b))
    !fresh;
  Alcotest.(check bool) "pow2 plans built" true (first "pow2.miss" >= 2.0);
  Alcotest.(check bool) "bluestein plans built" true (first "bluestein.miss" >= 2.0);
  Alcotest.(check bool) "every plan cached" true
    (second "pow2.miss" = 0.0 && second "bluestein.miss" = 0.0 && second "rfft.miss" = 0.0);
  Alcotest.(check bool) "pow2 plans hit" true (second "pow2.hit" >= 2.0);
  Alcotest.(check bool) "bluestein plans hit" true (second "bluestein.hit" >= 2.0)

let test_plan_cache_accuracy () =
  (* cached plans keep matching the direct DFT *)
  let g = Prng.create 11 in
  List.iter
    (fun n ->
      let err = rfft_err (random_real g n) in
      if err >= 1e-10 then Alcotest.failf "n=%d cached rfft_into departs from dft (%g)" n err)
    [ 96; 96; 128; 128 ]

(* ---- Window ---- *)

let window_kinds =
  [ Window.Rectangular; Window.Hann; Window.Hamming; Window.Blackman; Window.Blackman_harris ]

let test_window_dc_gain () =
  List.iter
    (fun kind ->
      let w = Window.coefficients kind 256 in
      let mean = Array.fold_left ( +. ) 0.0 w /. 256.0 in
      Alcotest.check (approx 1e-3)
        (Window.name kind ^ " coherent gain")
        (Window.coherent_gain kind) mean)
    window_kinds

let test_window_enbw_empirical () =
  List.iter
    (fun kind ->
      let n = 4096 in
      let w = Window.coefficients kind n in
      let sum = Array.fold_left ( +. ) 0.0 w in
      let sum_sq = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 w in
      let enbw = float_of_int n *. sum_sq /. (sum *. sum) in
      Alcotest.check (approx 1e-2)
        (Window.name kind ^ " ENBW")
        (Window.noise_bandwidth_bins kind) enbw)
    window_kinds

let test_window_known_enbw () =
  Alcotest.check (approx 1e-9) "rect" 1.0 (Window.noise_bandwidth_bins Window.Rectangular);
  Alcotest.check (approx 1e-9) "hann" 1.5 (Window.noise_bandwidth_bins Window.Hann)

let test_window_apply () =
  let signal = Array.make 100 1.0 in
  let out = Array.make 101 (-1.0) in
  Window.apply_into Window.Hann signal out;
  Alcotest.check (approx 1e-9) "starts at zero" 0.0 out.(0);
  Alcotest.(check (array (float 0.0))) "unit signal gives the window"
    (Window.coefficients Window.Hann 100) (Array.sub out 0 100);
  Alcotest.check (approx 0.0) "cells past the signal untouched" (-1.0) out.(100)

(* ---- Spectrum & Metrics ---- *)

let coherent_sine ?(amplitude = 1.0) ~n ~fs ~target () =
  let f = Tone.coherent_frequency ~sample_rate:fs ~samples:n ~target in
  (f, Tone.synthesize ~sample_rate:fs ~samples:n [ Tone.component ~freq:f ~amplitude () ])

let test_tone_power_reads_true () =
  List.iter
    (fun window ->
      let f, signal = coherent_sine ~amplitude:0.7 ~n:1024 ~fs:1000.0 ~target:100.0 () in
      let sp = Spectrum.analyze ~window ~sample_rate:1000.0 signal in
      Alcotest.check (approx 1e-3)
        (Window.name window ^ " tone power")
        (0.7 *. 0.7 /. 2.0) (Spectrum.tone_power sp ~freq:f))
    [ Window.Rectangular; Window.Hann; Window.Blackman ]

let test_spectrum_noise_total () =
  let g = Prng.create 6 in
  let sigma = 0.1 in
  let noise = Array.init 4096 (fun _ -> sigma *. Prng.gaussian g) in
  let sp = Spectrum.analyze ~window:Window.Hann ~sample_rate:1.0 noise in
  let total = Spectrum.total_power sp ~exclude_dc:false in
  Alcotest.check (approx 1e-3) "noise variance recovered" (sigma *. sigma) total

let test_bin_frequency_mapping () =
  let _, signal = coherent_sine ~n:512 ~fs:2048.0 ~target:300.0 () in
  let sp = Spectrum.analyze ~sample_rate:2048.0 signal in
  Alcotest.(check int) "bin of f" 64 (Spectrum.bin_of_frequency sp 256.0);
  Alcotest.check (approx 1e-9) "freq of bin" 256.0 (Spectrum.frequency_of_bin sp 64)

(* The prepared comparison reads exactly what comparing two [analyze]
   results bin by bin reads — both clamped at the per-bin floor, excluded
   bins and DC skipped — on power-of-two, even Bluestein and odd lengths,
   for perturbations from a stray code to a gross fault. *)
let test_departs_matches_analyze () =
  List.iter
    (fun (n, window) ->
      let g = Prng.create n in
      let golden_stream =
        Array.init n (fun i ->
            int_of_float (Float.round (400.0 *. sin (0.3 *. float_of_int i))) + Prng.int g 5 - 2)
      in
      let scale = 0.37 and tolerance_db = 6.0 in
      let spectrum stream =
        Spectrum.analyze ~window ~sample_rate:1.0
          (Array.map (fun y -> float_of_int y *. scale) stream)
      in
      let golden = spectrum golden_stream in
      let nbins = Spectrum.bin_count golden in
      let floor_db = Array.init nbins (fun _ -> Prng.uniform g ~lo:(-40.0) ~hi:10.0) in
      let excluded = Array.init nbins (fun k -> k = 0 || Prng.int g 8 = 0) in
      let mask = Spectrum.mask golden ~floor_db ~excluded ~tolerance_db in
      let reference stream =
        let sp = spectrum stream in
        let out = ref false in
        for k = 1 to nbins - 1 do
          if not excluded.(k) then begin
            let a = Float.max (Spectrum.power_db golden k) floor_db.(k) in
            let b = Float.max (Spectrum.power_db sp k) floor_db.(k) in
            if Float.abs (a -. b) > tolerance_db then out := true
          end
        done;
        !out
      in
      Alcotest.(check bool) "golden does not depart" false
        (Spectrum.departs mask ~scale golden_stream);
      let verdicts = ref [] in
      for trial = 0 to 39 do
        let amp = 1 lsl (trial mod 10) in
        let candidate =
          Array.map
            (fun y -> if Prng.int g 8 = 0 then y + Prng.int g ((2 * amp) + 1) - amp else y)
            golden_stream
        in
        let expected = reference candidate in
        verdicts := expected :: !verdicts;
        Alcotest.(check bool)
          (Printf.sprintf "n=%d trial %d" n trial)
          expected
          (Spectrum.departs mask ~scale candidate)
      done;
      Alcotest.(check bool) (Printf.sprintf "n=%d sees both verdicts" n) true
        (List.mem true !verdicts && List.mem false !verdicts))
    [ (256, Window.Hann); (300, Window.Blackman); (301, Window.Hann); (1024, Window.Hamming) ]

(* Judging one stream allocates nothing once the scratch and plans of its
   length exist, at a power-of-two and at a Bluestein length. *)
let test_departs_allocation_free () =
  List.iter
    (fun n ->
      let stream = Array.init n (fun i -> (i * 37) mod 200 - 100) in
      let golden = Spectrum.analyze ~sample_rate:1.0 (Array.map float_of_int stream) in
      let nbins = Spectrum.bin_count golden in
      let mask =
        Spectrum.mask golden ~floor_db:(Array.make nbins (-50.0))
          ~excluded:(Array.make nbins false) ~tolerance_db:6.0
      in
      ignore (Spectrum.departs mask ~scale:1.0 stream);
      let before = Gc.minor_words () in
      for _ = 1 to 100 do
        ignore (Spectrum.departs mask ~scale:1.0 stream)
      done;
      let words = Gc.minor_words () -. before in
      Alcotest.(check (float 0.0)) (Printf.sprintf "n=%d minor words" n) 0.0 words)
    [ 512; 300 ]

let test_metrics_clean_sine () =
  let f, signal = coherent_sine ~n:2048 ~fs:10000.0 ~target:1000.0 () in
  let sp = Spectrum.analyze ~sample_rate:10000.0 signal in
  let r = Metrics.analyze sp in
  Alcotest.check (approx 10.0) "fundamental found" f r.Metrics.fundamental_freq;
  Alcotest.(check bool) "snr very high" true (r.Metrics.snr_db > 100.0);
  Alcotest.(check bool) "sfdr very high" true (r.Metrics.sfdr_db > 100.0)

let test_sfdr_noncoherent_tone () =
  (* Regression: a pure tone at a non-coherent frequency leaks a Hann
     skirt around the fundamental.  The worst "spur" bin then sits on that
     skirt, and an unbounded hill-climb walks from it back into the main
     lobe, reporting the fundamental itself as the spur (SFDR ~ 0 dB).
     The bounded climb stays on the skirt, far below the carrier. *)
  let fs = 1e6 and n = 1024 in
  let f = 90_400.0 in
  let x =
    Array.init n (fun i -> sin (2.0 *. Float.pi *. f *. float_of_int i /. fs))
  in
  let sp = Spectrum.analyze ~sample_rate:fs x in
  let r = Metrics.analyze sp in
  if r.Metrics.sfdr_db <= 20.0 then
    Alcotest.failf "SFDR %.1f dB: spur climb reached the fundamental" r.Metrics.sfdr_db

let test_metrics_known_snr () =
  let g = Prng.create 7 in
  let fs = 10000.0 and n = 8192 in
  let f = Tone.coherent_frequency ~sample_rate:fs ~samples:n ~target:1000.0 in
  let sigma = 0.01 in
  (* amplitude-1 sine: signal power 0.5; noise sigma^2 = 1e-4 -> SNR = 37 dB *)
  let signal =
    Array.map
      (fun x -> x +. (sigma *. Prng.gaussian g))
      (Tone.synthesize ~sample_rate:fs ~samples:n [ Tone.component ~freq:f ~amplitude:1.0 () ])
  in
  let sp = Spectrum.analyze ~sample_rate:fs signal in
  let expected = 10.0 *. Float.log10 (0.5 /. (sigma *. sigma)) in
  Alcotest.check (approx 1.0) "snr" expected (Metrics.analyze sp).Metrics.snr_db

let test_metrics_harmonic_distortion () =
  let fs = 10000.0 and n = 4096 in
  let f = Tone.coherent_frequency ~sample_rate:fs ~samples:n ~target:900.0 in
  let signal =
    Tone.synthesize ~sample_rate:fs ~samples:n
      [ Tone.component ~freq:f ~amplitude:1.0 ();
        Tone.component ~freq:(3.0 *. f) ~amplitude:0.01 () ]
  in
  let sp = Spectrum.analyze ~sample_rate:fs signal in
  let r = Metrics.analyze sp in
  Alcotest.check (approx 0.5) "thd ~ -40" (-40.0) r.Metrics.thd_db;
  Alcotest.check (approx 0.5) "sfdr ~ 40" 40.0 r.Metrics.sfdr_db

let test_aliased_harmonic () =
  (* 3rd harmonic of ~2400 Hz at fs 10 kHz lands at ~7200 -> folds to ~2800,
     where the THD must find it: the only distortion, at 20 log10 0.003 dBc *)
  let fs = 10000.0 and n = 4096 in
  let f = Tone.coherent_frequency ~sample_rate:fs ~samples:n ~target:2400.0 in
  let folded = fs -. (3.0 *. f) in
  let amplitude = 0.003 in
  let signal =
    Tone.synthesize ~sample_rate:fs ~samples:n
      [ Tone.component ~freq:f ~amplitude:1.0 ();
        Tone.component ~freq:folded ~amplitude () ]
  in
  let r = Metrics.analyze (Spectrum.analyze ~sample_rate:fs signal) in
  Alcotest.check (approx 0.5) "folded hd3 found" (20.0 *. Float.log10 amplitude) r.Metrics.thd_db

let test_intermod_products () =
  let f1, f2 = (90.0, 110.0) in
  let lo, hi = Metrics.intermod3_products ~f1 ~f2 in
  Alcotest.check (approx 1e-9) "2f1-f2" 70.0 lo;
  Alcotest.check (approx 1e-9) "2f2-f1" 130.0 hi

let test_snr_multi_excludes_tones () =
  let g = Prng.create 8 in
  let fs = 1000.0 and n = 4096 in
  let f1 = Tone.coherent_frequency ~sample_rate:fs ~samples:n ~target:90.0 in
  let f2 = Tone.coherent_frequency ~sample_rate:fs ~samples:n ~target:110.0 in
  let sigma = 0.01 in
  let signal =
    Array.map
      (fun x -> x +. (sigma *. Prng.gaussian g))
      (Tone.synthesize ~sample_rate:fs ~samples:n
         [ Tone.component ~freq:f1 ~amplitude:1.0 (); Tone.component ~freq:f2 ~amplitude:1.0 () ])
  in
  let sp = Spectrum.analyze ~sample_rate:fs signal in
  let expected = 10.0 *. Float.log10 (1.0 /. (sigma *. sigma)) in
  Alcotest.check (approx 1.0) "multi-tone snr" expected
    (Metrics.snr_multi_db sp ~signals:[ f1; f2 ] ())

(* ---- Tone ---- *)

let test_coherent_frequency_odd_cycles () =
  let fs = 1000.0 and n = 1024 in
  let f = Tone.coherent_frequency ~sample_rate:fs ~samples:n ~target:100.0 in
  let cycles = f *. float_of_int n /. fs in
  Alcotest.(check bool) "integral cycles" true
    (Float.abs (cycles -. Float.round cycles) < 1e-9);
  Alcotest.(check bool) "odd" true (int_of_float (Float.round cycles) mod 2 = 1)

let test_streaming_matches_batch () =
  let fs = 1000.0 in
  let comps = [ Tone.component ~freq:123.0 ~amplitude:0.5 ~phase:0.3 () ] in
  let batch = Tone.synthesize ~sample_rate:fs ~samples:64 comps in
  Array.iteri
    (fun t expected ->
      Alcotest.check (approx 1e-12) "sample" expected (Tone.sample ~sample_rate:fs ~t comps))
    batch

(* The stored unit waveform reproduces [synthesize_into]'s one-tone
   stimulus bit for bit over any sequence of captures.  Frequencies, phases
   and rates come from small pools, so a sequence both repeats a tone (the
   store is reused) and alternates (it is replaced); amplitudes are
   negative, zero and positive, at phase 0 among others, where a negative
   amplitude meets [sin 0.0]. *)
let prop_single_tone_store =
  let n = 256 in
  let capture =
    QCheck.Gen.(
      quad (oneofl [ 8e6; 1e6 ]) (oneofl [ 90e3; 100e3; 110e3 ]) (oneofl [ 0.0; 0.7; -0.0 ])
        (oneof [ oneofl [ -0.25; -0.0; 0.0 ]; float_range (-2.0) 2.0 ]))
  in
  let print (rate, freq, phase, amplitude) =
    Printf.sprintf "(rate %h, freq %h, phase %h, amplitude %h)" rate freq phase amplitude
  in
  QCheck.Test.make ~name:"one-tone store = synthesize_into, bit for bit" ~count:200
    (QCheck.make ~print:(QCheck.Print.list print) QCheck.Gen.(list_size (int_range 1 12) capture))
    (fun captures ->
      let memo = Tone.unit_wave ~samples:n in
      let out = Array.make n 0.0 and expected = Array.make n 0.0 in
      let bits = Array.map Int64.bits_of_float in
      List.for_all
        (fun (sample_rate, freq, phase, amplitude) ->
          let tone = Tone.component ~freq ~amplitude ~phase () in
          Tone.synthesize_single_into memo ~sample_rate tone out;
          Tone.synthesize_into ~sample_rate [ tone ] expected;
          bits out = bits expected)
        captures)

let test_tone_fit_recovers_components () =
  let fs = 1e6 and n = 2048 in
  let f = Tone.coherent_frequency ~sample_rate:fs ~samples:n ~target:123e3 in
  let signal =
    Tone.synthesize ~sample_rate:fs ~samples:n
      [ Tone.component ~freq:f ~amplitude:0.42 ~phase:0.7 () ]
  in
  let fit = Tone.fit signal ~sample_rate:fs ~freq:f in
  Alcotest.check (approx 1e-9) "amplitude" 0.42 fit.Tone.amplitude;
  Alcotest.check (approx 1e-9) "phase" 0.7 fit.Tone.phase

let test_tone_fit_under_noise () =
  let g = Prng.create 9 in
  let fs = 1e6 and n = 8192 in
  let f = Tone.coherent_frequency ~sample_rate:fs ~samples:n ~target:90e3 in
  let signal =
    Array.map
      (fun x -> x +. (0.05 *. Prng.gaussian g))
      (Tone.synthesize ~sample_rate:fs ~samples:n [ Tone.component ~freq:f ~amplitude:1.0 () ])
  in
  let fit = Tone.fit signal ~sample_rate:fs ~freq:f in
  Alcotest.check (approx 0.01) "amplitude under noise" 1.0 fit.Tone.amplitude

(* ---- CIC ---- *)

let test_cic_dc_gain () =
  let cic = Cic.create ~order:3 ~decimation:8 in
  let out = Cic.process cic (Array.make 256 1) in
  Alcotest.(check int) "output length" 32 (Array.length out);
  (* after settling, a DC input of 1 reads the full gain, 8^3 *)
  Alcotest.(check int) "steady-state dc" 512 out.(31)

let test_cic_against_moving_average () =
  (* order-1 CIC = boxcar sum of [decimation] samples *)
  let g = Prng.create 4 in
  let input = Array.init 128 (fun _ -> Prng.int g 100 - 50) in
  let cic = Cic.create ~order:1 ~decimation:4 in
  let out = Cic.process cic input in
  Array.iteri
    (fun i y ->
      let expected = ref 0 in
      for j = 0 to 3 do
        expected := !expected + input.((i * 4) + j)
      done;
      if y <> !expected then Alcotest.failf "boxcar mismatch at %d" i)
    out

let test_cic_magnitude_nulls () =
  let cic = Cic.create ~order:3 ~decimation:8 in
  (* nulls at multiples of fs/R *)
  Alcotest.(check bool) "null at fs/R" true
    (Cic.magnitude_db cic ~input_rate:8e6 ~freq:1e6 < -100.0);
  Alcotest.check (approx 1e-6) "unity at dc" 0.0
    (Cic.magnitude_db cic ~input_rate:8e6 ~freq:1e-3)

let test_cic_state_persists () =
  let input = Array.init 64 (fun i -> i mod 7) in
  let one_shot = Cic.process (Cic.create ~order:2 ~decimation:4) input in
  let cic = Cic.create ~order:2 ~decimation:4 in
  (* the split is not a multiple of the decimation: the phase carries *)
  let first = Cic.process cic (Array.sub input 0 22) in
  let second = Cic.process cic (Array.sub input 22 42) in
  Alcotest.(check (array int)) "chunked = one shot" one_shot (Array.append first second)

(* ---- FIR ---- *)

let test_lowpass_response () =
  let d = Fir.lowpass ~taps:31 ~cutoff:0.15 () in
  Alcotest.check (approx 1e-6) "dc gain" 0.0 (Fir.magnitude_db d.Fir.taps ~freq:1e-6);
  Alcotest.(check bool) "passband flat" true (Fir.magnitude_db d.Fir.taps ~freq:0.05 > -1.0);
  Alcotest.(check bool) "stopband down" true (Fir.magnitude_db d.Fir.taps ~freq:0.35 < -40.0)

let test_fir_symmetric () =
  let d = Fir.lowpass ~taps:13 ~cutoff:0.12 () in
  let t = d.Fir.taps in
  for i = 0 to 6 do
    Alcotest.check (approx 1e-12) "linear phase symmetry" t.(i) t.(12 - i)
  done

let test_quantize_roundtrip () =
  let d = Fir.lowpass ~taps:13 ~cutoff:0.12 () in
  let codes, scale = Fir.quantize d.Fir.taps ~bits:10 in
  let back = Array.map (fun c -> float_of_int c *. scale) codes in
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) "quantization error within half LSB" true
        (Float.abs (c -. d.Fir.taps.(i)) <= (scale /. 2.0) +. 1e-12))
    back;
  let max_code = Array.fold_left (fun m c -> max m (abs c)) 0 codes in
  Alcotest.(check bool) "uses available range" true (max_code >= 256 && max_code <= 511)

let test_filter_convolution () =
  let taps = [| 0.5; 0.25; 0.25 |] in
  let x = [| 1.0; 0.0; 0.0; 2.0 |] in
  let y = Fir.filter taps x in
  Alcotest.check (approx 1e-12) "y0" 0.5 y.(0);
  Alcotest.check (approx 1e-12) "y1" 0.25 y.(1);
  Alcotest.check (approx 1e-12) "y2" 0.25 y.(2);
  Alcotest.check (approx 1e-12) "y3" 1.0 y.(3)

let prop_fir_dc_gain_unity =
  QCheck.Test.make ~name:"designed FIR has unity dc gain" ~count:40
    (QCheck.pair (QCheck.int_range 3 41) (QCheck.float_range 0.05 0.4))
    (fun (taps, cutoff) ->
      let d = Fir.lowpass ~taps ~cutoff () in
      Float.abs (Array.fold_left ( +. ) 0.0 d.Fir.taps -. 1.0) < 1e-9)

(* ---- Biquad ---- *)

let test_butterworth_minus3db () =
  let c = Biquad.butterworth_lowpass ~sample_rate:48000.0 ~cutoff:1000.0 in
  Alcotest.check (approx 0.05) "-3 dB at cutoff" (-3.0103)
    (Biquad.cascade_magnitude_db [ c ] ~sample_rate:48000.0 ~freq:1000.0);
  Alcotest.check (approx 0.1) "dc gain 0 dB" 0.0
    (Biquad.cascade_magnitude_db [ c ] ~sample_rate:48000.0 ~freq:1.0)

let test_butterworth_rolloff () =
  let c = Biquad.butterworth_lowpass ~sample_rate:48000.0 ~cutoff:1000.0 in
  let g10 = Biquad.cascade_magnitude_db [ c ] ~sample_rate:48000.0 ~freq:10000.0 in
  (* 2nd order: -40 dB/decade (bilinear warping pushes it a little lower) *)
  Alcotest.(check bool) "about -40 dB a decade up" true (g10 < -38.0 && g10 > -48.0)

let test_biquad_time_domain_matches_response () =
  let fs = 48000.0 and n = 8192 in
  let c = Biquad.butterworth_lowpass ~sample_rate:fs ~cutoff:2000.0 in
  let f = Tone.coherent_frequency ~sample_rate:fs ~samples:n ~target:1500.0 in
  let input =
    Tone.synthesize ~sample_rate:fs ~samples:n [ Tone.component ~freq:f ~amplitude:1.0 () ]
  in
  let output = Array.copy input in
  Biquad.filter_into c output;
  let tail = Array.sub output (n / 2) (n / 2) in
  let sp = Spectrum.analyze ~sample_rate:fs tail in
  let measured = 10.0 *. Float.log10 (Spectrum.tone_power sp ~freq:f /. 0.5) in
  Alcotest.check (approx 0.1) "time-domain gain matches H(f)"
    (Biquad.cascade_magnitude_db [ c ] ~sample_rate:fs ~freq:f)
    measured

let test_biquad_reset () =
  (* every call starts from rest: no state carries between buffers *)
  let c = Biquad.butterworth_lowpass ~sample_rate:1000.0 ~cutoff:100.0 in
  let impulse () = Array.init 16 (fun i -> if i = 0 then 1.0 else 0.0) in
  let first = impulse () and second = impulse () in
  Biquad.filter_into c first;
  Biquad.filter_into c second;
  Alcotest.check (approx 1e-12) "first output is b0" c.Biquad.b0 first.(0);
  Alcotest.(check (array (float 0.0))) "second call reproduces the first" first second

let test_cascade_magnitude () =
  let c = Biquad.butterworth_lowpass ~sample_rate:48000.0 ~cutoff:1000.0 in
  Alcotest.check (approx 1e-9) "cascade doubles dB"
    (2.0 *. Biquad.cascade_magnitude_db [ c ] ~sample_rate:48000.0 ~freq:3000.0)
    (Biquad.cascade_magnitude_db [ c; c ] ~sample_rate:48000.0 ~freq:3000.0)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "msoc_dsp"
    [ ( "fft",
        Alcotest.test_case "pow2 helpers" `Quick test_power_of_two_helpers
        :: Alcotest.test_case "fft=dft pow2" `Quick test_fft_matches_dft_pow2
        :: Alcotest.test_case "fft=dft bluestein" `Quick test_fft_matches_dft_bluestein
        :: Alcotest.test_case "impulse" `Quick test_fft_impulse
        :: Alcotest.test_case "linearity" `Quick test_fft_linearity
        :: Alcotest.test_case "parseval" `Quick test_parseval
        :: Alcotest.test_case "rfft" `Quick test_rfft_hermitian_consistency
        :: Alcotest.test_case "rfft explicit sizes" `Quick test_rfft_explicit_sizes
        :: Alcotest.test_case "rfft_into reuse" `Quick test_rfft_into_reuse
        :: Alcotest.test_case "plan cache bitwise" `Quick test_plan_cache_bitwise
        :: Alcotest.test_case "plan cache interleaved" `Quick test_plan_cache_interleaved
        :: Alcotest.test_case "plan cache accuracy" `Quick test_plan_cache_accuracy
        :: qcheck [ prop_rfft_matches_dft ] );
      ( "window",
        [ Alcotest.test_case "coherent gain" `Quick test_window_dc_gain;
          Alcotest.test_case "ENBW empirical" `Quick test_window_enbw_empirical;
          Alcotest.test_case "known ENBW" `Quick test_window_known_enbw;
          Alcotest.test_case "apply" `Quick test_window_apply ] );
      ( "spectrum",
        [ Alcotest.test_case "tone power calibrated" `Quick test_tone_power_reads_true;
          Alcotest.test_case "noise total" `Quick test_spectrum_noise_total;
          Alcotest.test_case "bin mapping" `Quick test_bin_frequency_mapping;
          Alcotest.test_case "departs = analyze comparison" `Quick test_departs_matches_analyze;
          Alcotest.test_case "departs allocates nothing" `Quick test_departs_allocation_free ] );
      ( "metrics",
        [ Alcotest.test_case "clean sine" `Quick test_metrics_clean_sine;
          Alcotest.test_case "sfdr non-coherent tone" `Quick test_sfdr_noncoherent_tone;
          Alcotest.test_case "known snr" `Quick test_metrics_known_snr;
          Alcotest.test_case "harmonic distortion" `Quick test_metrics_harmonic_distortion;
          Alcotest.test_case "aliased harmonic" `Quick test_aliased_harmonic;
          Alcotest.test_case "intermod products" `Quick test_intermod_products;
          Alcotest.test_case "multi-tone snr" `Quick test_snr_multi_excludes_tones ] );
      ( "tone",
        [ Alcotest.test_case "coherent odd cycles" `Quick test_coherent_frequency_odd_cycles;
          Alcotest.test_case "streaming = batch" `Quick test_streaming_matches_batch;
          Alcotest.test_case "fit recovers amplitude/phase" `Quick
            test_tone_fit_recovers_components;
          Alcotest.test_case "fit under noise" `Quick test_tone_fit_under_noise;
          QCheck_alcotest.to_alcotest prop_single_tone_store ] );
      ( "cic",
        [ Alcotest.test_case "dc gain" `Quick test_cic_dc_gain;
          Alcotest.test_case "order-1 = boxcar" `Quick test_cic_against_moving_average;
          Alcotest.test_case "magnitude nulls" `Quick test_cic_magnitude_nulls;
          Alcotest.test_case "state persists" `Quick test_cic_state_persists ] );
      ( "fir",
        Alcotest.test_case "lowpass response" `Quick test_lowpass_response
        :: Alcotest.test_case "symmetry" `Quick test_fir_symmetric
        :: Alcotest.test_case "quantize" `Quick test_quantize_roundtrip
        :: Alcotest.test_case "convolution" `Quick test_filter_convolution
        :: qcheck [ prop_fir_dc_gain_unity ] );
      ( "biquad",
        [ Alcotest.test_case "-3dB point" `Quick test_butterworth_minus3db;
          Alcotest.test_case "rolloff" `Quick test_butterworth_rolloff;
          Alcotest.test_case "time domain matches H" `Quick
            test_biquad_time_domain_matches_response;
          Alcotest.test_case "reset" `Quick test_biquad_reset;
          Alcotest.test_case "cascade" `Quick test_cascade_magnitude ] ) ]
