(* Unit and property tests for msoc_stat. *)

open Msoc_stat
module Prng = Msoc_util.Prng

let approx eps = Alcotest.float eps

(* ---- Special functions (reference values from standard tables) ---- *)

(* erf through the distribution layer that uses it: for a normal with
   sigma = 1/sqrt 2, cdf x = (1 + erf x) / 2. *)
let erf x = (2.0 *. Distribution.cdf (Distribution.normal ~mean:0.0 ~sigma:(sqrt 0.5)) x) -. 1.0

let test_erf_values () =
  let cases =
    [ (0.0, 0.0);
      (0.1, 0.112462916018285);
      (0.5, 0.520499877813047);
      (1.0, 0.842700792949715);
      (2.0, 0.995322265018953);
      (3.0, 0.999977909503001) ]
  in
  List.iter
    (fun (x, expected) -> Alcotest.check (approx 1e-12) (Printf.sprintf "erf(%g)" x) expected (erf x))
    cases

let test_erf_odd () =
  List.iter
    (fun x -> Alcotest.check (approx 1e-14) "erf is odd" (-.erf x) (erf (-.x)))
    [ 0.3; 1.2; 2.7; 4.5 ]

let test_erfc_tail () =
  Alcotest.check (approx 1e-19) "erfc(5)" 1.537459794428035e-12 (Special.erfc 5.0);
  Alcotest.check (approx 1e-30) "erfc(8)" 1.122429717298146e-29 (Special.erfc 8.0);
  Alcotest.check (approx 1e-12) "erfc(-2) = 2 - erfc(2)" (2.0 -. Special.erfc 2.0)
    (Special.erfc (-2.0))

let test_erf_erfc_complement () =
  List.iter
    (fun x ->
      Alcotest.check (approx 1e-13) "erf + erfc = 1" 1.0 (erf x +. Special.erfc x))
    [ 0.1; 0.7; 1.5; 3.0; 6.0 ]

(* ---- Distributions ---- *)

let test_normal_cdf_symmetry () =
  let d = Distribution.normal ~mean:3.0 ~sigma:2.0 in
  Alcotest.check (approx 1e-12) "cdf at mean" 0.5 (Distribution.cdf d 3.0);
  Alcotest.check (approx 1e-12) "symmetry" 1.0 (Distribution.cdf d 1.0 +. Distribution.cdf d 5.0)

(* Composite Simpson over [n] (even) panels, enough for a smooth density
   over +-10 sigma. *)
let simpson ~f ~lo ~hi ~n =
  let h = (hi -. lo) /. float_of_int n in
  let acc = ref (f lo +. f hi) in
  for i = 1 to n - 1 do
    acc := !acc +. ((if i mod 2 = 1 then 4.0 else 2.0) *. f (lo +. (float_of_int i *. h)))
  done;
  !acc *. h /. 3.0

let test_normal_pdf_integrates () =
  let d = Distribution.normal ~mean:(-1.0) ~sigma:0.5 in
  let integral = simpson ~f:(Distribution.pdf d) ~lo:(-6.0) ~hi:4.0 ~n:2000 in
  Alcotest.check (approx 1e-8) "pdf integrates to 1" 1.0 integral

let test_normal_of_tolerance () =
  (* the tolerance model: sigma = tol / 3 puts 99.73% of parts inside ±tol *)
  let d = Distribution.normal ~mean:5.0 ~sigma:(1.5 /. 3.0) in
  Alcotest.check (approx 1e-12) "sigma = tol/3" 0.5 (Distribution.stddev d);
  Alcotest.check (approx 1e-4) "3-sigma mass" 0.9973
    (Distribution.cdf d 6.5 -. Distribution.cdf d 3.5)

let test_sampling_matches_cdf () =
  let d = Distribution.normal ~mean:2.0 ~sigma:1.0 in
  let g = Prng.create 77 in
  let n = 20000 in
  let below = ref 0 in
  for _ = 1 to n do
    if Distribution.sample d g <= 2.5 then incr below
  done;
  Alcotest.check (approx 0.02) "empirical cdf" (Distribution.cdf d 2.5)
    (float_of_int !below /. float_of_int n)

(* ---- Describe ---- *)

let test_summarize () =
  let s = Describe.summarize [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check int) "count" 8 s.Describe.count;
  Alcotest.check (approx 1e-12) "mean" 5.0 s.Describe.mean;
  Alcotest.check (approx 1e-9) "variance (unbiased)" (32.0 /. 7.0) s.Describe.variance;
  Alcotest.check (approx 1e-12) "min" 2.0 s.Describe.minimum;
  Alcotest.check (approx 1e-12) "max" 9.0 s.Describe.maximum

let test_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.check (approx 1e-12) "median" 3.0 (Describe.median xs);
  Alcotest.check (approx 1e-12) "p0" 1.0 (Describe.percentile xs 0.0);
  Alcotest.check (approx 1e-12) "p100" 5.0 (Describe.percentile xs 1.0);
  Alcotest.check (approx 1e-12) "p25 interpolated" 2.0 (Describe.percentile xs 0.25)

let test_rms () =
  Alcotest.check (approx 1e-12) "rms of constant" 3.0 (Describe.rms [| 3.0; -3.0; 3.0 |]);
  Alcotest.check (approx 1e-12) "rms empty" 0.0 (Describe.rms [||])

let prop_welford_matches_naive =
  QCheck.Test.make ~name:"welford variance matches two-pass" ~count:200
    QCheck.(list_of_size (Gen.int_range 2 50) (float_range (-1000.0) 1000.0))
    (fun xs ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let mean = Array.fold_left ( +. ) 0.0 arr /. float_of_int n in
      let naive =
        Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 arr
        /. float_of_int (n - 1)
      in
      let s = Describe.summarize arr in
      Float.abs (s.Describe.variance -. naive) <= 1e-6 *. Float.max 1.0 naive)

(* ---- Monte Carlo ---- *)

let test_probability_estimate () =
  let g = Prng.create 99 in
  let hits =
    Monte_carlo.sample_array_pooled ~trials:20000 ~rng:g
      ~f:(fun g _ -> if Prng.float g < 0.3 then 1.0 else 0.0)
      ()
  in
  Alcotest.check (approx 0.02) "probability" 0.3 (Describe.summarize hits).Describe.mean

let test_mean_estimate () =
  let g = Prng.create 123 in
  let s =
    Describe.summarize
      (Monte_carlo.sample_array_pooled ~trials:20000 ~rng:g
         ~f:(fun g _ -> Prng.uniform g ~lo:0.0 ~hi:2.0)
         ())
  in
  Alcotest.check (approx 0.02) "mean" 1.0 s.Describe.mean;
  Alcotest.check (approx 0.02) "stddev" (2.0 /. sqrt 12.0) s.Describe.stddev

let test_sample_array () =
  let g = Prng.create 7 in
  let xs = Monte_carlo.sample_array_pooled ~trials:100 ~rng:g ~f:(fun g _ -> Prng.float g) () in
  Alcotest.(check int) "length" 100 (Array.length xs)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "msoc_stat"
    [ ( "special",
        [ Alcotest.test_case "erf table values" `Quick test_erf_values;
          Alcotest.test_case "erf odd" `Quick test_erf_odd;
          Alcotest.test_case "erfc tails" `Quick test_erfc_tail;
          Alcotest.test_case "erf+erfc" `Quick test_erf_erfc_complement ] );
      ( "distribution",
        [ Alcotest.test_case "normal cdf symmetry" `Quick test_normal_cdf_symmetry;
          Alcotest.test_case "normal pdf integral" `Quick test_normal_pdf_integrates;
          Alcotest.test_case "normal of tolerance" `Quick test_normal_of_tolerance;
          Alcotest.test_case "sampling matches cdf" `Quick test_sampling_matches_cdf ] );
      ( "describe",
        Alcotest.test_case "summarize" `Quick test_summarize
        :: Alcotest.test_case "percentile" `Quick test_percentile
        :: Alcotest.test_case "rms" `Quick test_rms
        :: qcheck [ prop_welford_matches_naive ] );
      ( "monte-carlo",
        [ Alcotest.test_case "probability estimate" `Quick test_probability_estimate;
          Alcotest.test_case "mean estimate" `Quick test_mean_estimate;
          Alcotest.test_case "sample array" `Quick test_sample_array ] ) ]
