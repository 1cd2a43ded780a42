(* Unit and property tests for msoc_util. *)

open Msoc_util

let approx = Alcotest.(float 1e-9)
let approx_loose = Alcotest.(float 1e-6)

(* ---- Units ---- *)

let test_db_roundtrip () =
  Alcotest.check approx "power ratio" 123.456
    (Units.power_ratio_of_db (Units.db_of_power_ratio 123.456));
  Alcotest.check approx "voltage ratio squared = power ratio" 123.456
    (Float.pow (Units.voltage_ratio_of_db (Units.db_of_power_ratio 123.456)) 2.0)

let test_db_identities () =
  Alcotest.check approx "10x power = 10 dB" 10.0 (Units.db_of_power_ratio 10.0);
  Alcotest.check approx "20 dB = 10x voltage" 10.0 (Units.voltage_ratio_of_db 20.0);
  Alcotest.check approx "unity = 0 dB" 0.0 (Units.db_of_power_ratio 1.0)

let test_dbm () =
  Alcotest.check approx "1 mW = 0 dBm" 0.0 (Units.dbm_of_watts 1e-3);
  Alcotest.check approx "1 W = 30 dBm" 30.0 (Units.dbm_of_watts 1.0);
  Alcotest.check approx_loose "watts roundtrip" 2.5e-3 (Units.watts_of_dbm (Units.dbm_of_watts 2.5e-3))

let test_dbm_volts () =
  (* 0.2236 Vrms, a 0.3162 V peak, across 50 ohm = 1 mW = 0 dBm *)
  Alcotest.check approx_loose "vpeak at 0 dBm" (sqrt 2.0 *. sqrt (1e-3 *. 50.0))
    (Units.vpeak_of_dbm 0.0);
  Alcotest.check approx_loose "dbm_of_vpeak inverse" (-13.7)
    (Units.dbm_of_vpeak (Units.vpeak_of_dbm (-13.7)))

let test_degrees () =
  Alcotest.check approx "180 deg = pi" Float.pi (Units.radians_of_degrees 180.0);
  Alcotest.check approx "-90 deg = -pi/2" (-.Float.pi /. 2.0) (Units.radians_of_degrees (-90.0))

(* ---- Floatx ---- *)

let test_clamp () =
  Alcotest.check approx "below" 0.0 (Floatx.clamp ~lo:0.0 ~hi:1.0 (-5.0));
  Alcotest.check approx "above" 1.0 (Floatx.clamp ~lo:0.0 ~hi:1.0 5.0);
  Alcotest.check approx "inside" 0.5 (Floatx.clamp ~lo:0.0 ~hi:1.0 0.5)

let test_linspace () =
  let xs = Floatx.linspace 0.0 1.0 5 in
  Alcotest.(check int) "length" 5 (Array.length xs);
  Alcotest.check approx "first" 0.0 xs.(0);
  Alcotest.check approx "last" 1.0 xs.(4);
  Alcotest.check approx "step" 0.25 xs.(1)

let test_kahan_sum () =
  (* A sum that loses the small terms under naive accumulation. *)
  let xs = Array.make 10001 1e-12 in
  xs.(0) <- 1e12;
  let total = Floatx.sum xs in
  Alcotest.check (Alcotest.float 1e-4) "kahan keeps small terms" (1e12 +. 1e-8) total

let test_mean_maxabs () =
  Alcotest.check approx "max_abs" 3.0 (Floatx.max_abs [| 1.0; -3.0; 2.0 |]);
  Alcotest.check approx "max_abs empty" 0.0 (Floatx.max_abs [||])

(* ---- Prng ---- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.split_seed a) (Prng.split_seed b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Prng.split_seed a <> Prng.split_seed b)

let test_prng_copy () =
  let a = Prng.create 5 in
  let _ = Prng.split_seed a in
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.split_seed a) (Prng.split_seed b)

let test_prng_split () =
  let a = Prng.create 9 in
  let b = Prng.split a in
  Alcotest.(check bool) "split stream differs" true (Prng.split_seed a <> Prng.split_seed b)

let test_prng_float_range () =
  let g = Prng.create 3 in
  for _ = 1 to 10000 do
    let x = Prng.float g in
    if x < 0.0 || x >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let test_prng_uniform_mean () =
  let g = Prng.create 17 in
  let n = 20000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Prng.uniform g ~lo:2.0 ~hi:4.0
  done;
  Alcotest.check (Alcotest.float 0.02) "uniform mean" 3.0 (!total /. float_of_int n)

let test_prng_gaussian_moments () =
  let g = Prng.create 23 in
  let n = 50000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.gaussian g in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.check (Alcotest.float 0.03) "gaussian mean" 0.0 mean;
  Alcotest.check (Alcotest.float 0.05) "gaussian variance" 1.0 var

let test_prng_int_bounds () =
  let g = Prng.create 31 in
  let counts = Array.make 7 0 in
  for _ = 1 to 7000 do
    let k = Prng.int g 7 in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iteri
    (fun i c -> if c < 700 then Alcotest.failf "bucket %d underpopulated (%d)" i c)
    counts

let test_prng_int_chi_square () =
  (* Rejection sampling makes [int] exactly uniform over a non-power-of-two
     range; the old masked-modulo draw biased the low residues, which a
     chi-square test over enough draws detects.  df = 12; the 99.9% tail is
     32.9, so a fixed-seed statistic above 40 means a real bias. *)
  let g = Prng.create 417 in
  let n = 13 and draws = 130_000 in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let k = Prng.int g n in
    counts.(k) <- counts.(k) + 1
  done;
  let expected = float_of_int draws /. float_of_int n in
  let stat =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 counts
  in
  if stat > 40.0 then Alcotest.failf "chi-square statistic %.1f (df 12): biased" stat

(* The closure-and-Int64 draw [Prng.int] replaced, kept as the reference
   for its values and its draw count. *)
let reference_int g n =
  assert (n > 0);
  if n land (n - 1) = 0 then Int64.to_int (Int64.logand (Prng.split_seed g) (Int64.of_int (n - 1)))
  else begin
    let rec mask_of m = if m >= n - 1 then m else mask_of ((m lsl 1) lor 1) in
    let mask = Int64.of_int (mask_of 1) in
    let rec draw () =
      let bits = Int64.to_int (Int64.logand (Prng.split_seed g) mask) in
      if bits < n then bits else draw ()
    in
    draw ()
  end

let test_prng_int_matches_reference () =
  let bounds = List.init 300 (fun i -> i + 1) @ [ (1 lsl 31) - 1; (1 lsl 31) + 1; (1 lsl 40) + 3 ] in
  List.iter
    (fun seed ->
      List.iter
        (fun n ->
          let g = Prng.create seed and r = Prng.create seed in
          for draw = 1 to 20 do
            let got = Prng.int g n and want = reference_int r n in
            if got <> want then Alcotest.failf "seed %d, bound %d, draw %d: %d <> %d" seed n draw got want
          done;
          (* the same number of raw draws consumed *)
          Alcotest.(check int64) (Printf.sprintf "seed %d, bound %d: generator state" seed n)
            (Prng.split_seed r) (Prng.split_seed g))
        bounds)
    [ 1; 7; 42; 417; 90210 ]

let test_prng_int_allocation_free () =
  let g = Prng.create 11 in
  ignore (Prng.int g 46);
  let before = Gc.minor_words () in
  let acc = ref 0 in
  for _ = 1 to 10_000 do
    acc := !acc + Prng.int g 46
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "draws in range" true (!acc >= 0 && !acc < 46 * 10_000);
  Alcotest.(check (float 0.0)) "minor words for 10 000 draws" 0.0 words

(* ---- Interval ---- *)

let interval_gen =
  QCheck.Gen.(
    map2
      (fun a b -> Interval.make ~lo:(Float.min a b) ~hi:(Float.max a b))
      (float_range (-100.0) 100.0) (float_range (-100.0) 100.0))

let arb_interval =
  QCheck.make ~print:(fun i -> Format.asprintf "%a" Interval.pp i) interval_gen

let prop_add_contains =
  QCheck.Test.make ~name:"interval add contains midpoint sum" ~count:500
    (QCheck.pair arb_interval arb_interval) (fun (a, b) ->
      Interval.contains (Interval.add a b) (Interval.mid a +. Interval.mid b))

let prop_mul_contains =
  QCheck.Test.make ~name:"interval mul contains endpoint products" ~count:500
    (QCheck.pair arb_interval arb_interval) (fun (a, b) ->
      let p = Interval.mul a b in
      Interval.contains p (a.Interval.lo *. b.Interval.lo)
      && Interval.contains p (a.Interval.hi *. b.Interval.hi)
      && Interval.contains p (a.Interval.lo *. b.Interval.hi)
      && Interval.contains p (a.Interval.hi *. b.Interval.lo))

let prop_sub_anti =
  QCheck.Test.make ~name:"interval sub = add of neg" ~count:500
    (QCheck.pair arb_interval arb_interval) (fun (a, b) ->
      Interval.sub a b = Interval.add a (Interval.neg b))

let test_interval_basics () =
  let i = Interval.of_err 10.0 ~err:2.0 in
  Alcotest.check approx "mid" 10.0 (Interval.mid i);
  Alcotest.check approx "err" 2.0 (Interval.err i);
  Alcotest.(check bool) "contains" true (Interval.contains i 11.9);
  Alcotest.(check bool) "not contains" false (Interval.contains i 12.1)

let test_interval_monotone () =
  let i = Interval.make ~lo:1.0 ~hi:4.0 in
  let s = Interval.map_monotone sqrt i in
  Alcotest.check approx "sqrt lo" 1.0 s.Interval.lo;
  Alcotest.check approx "sqrt hi" 2.0 s.Interval.hi

(* ---- Texttable ---- *)

let test_texttable_render () =
  let t = Texttable.create ~headers:[ "a"; "bb" ] in
  Texttable.add_row t [ "1"; "2" ];
  Texttable.add_separator t;
  Texttable.add_row t [ "333" ];
  let rendered = Texttable.render t in
  Alcotest.(check bool) "has header" true
    (String.length rendered > 0 && String.sub rendered 0 1 = "a");
  Alcotest.(check bool) "pads short rows" true
    (List.length (String.split_on_char '\n' rendered) >= 4)

let test_texttable_cells () =
  Alcotest.(check string) "float cell" "3.14" (Texttable.cell_f ~decimals:2 3.14159);
  Alcotest.(check string) "pct cell" "12.3%" (Texttable.cell_pct 0.1234)

(* ---- Lru ---- *)

let test_lru_basics () =
  (match Lru.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 must be rejected");
  let c = Lru.create ~capacity:2 in
  Alcotest.(check (option int)) "miss on empty" None (Lru.find c "a");
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Alcotest.(check (option int)) "hit a" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "hit b" (Some 2) (Lru.find c "b");
  Alcotest.(check int) "hits" 2 (Lru.hits c);
  Alcotest.(check int) "misses" 1 (Lru.misses c);
  Alcotest.(check int) "no eviction yet" 0 (Lru.evictions c)

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  (* touching "a" makes "b" the LRU entry, so adding "c" evicts "b" *)
  ignore (Lru.find c "a");
  Lru.add c "c" 3;
  Alcotest.(check int) "one eviction" 1 (Lru.evictions c);
  Alcotest.(check (option int)) "recently used survives" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "lru entry evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "new entry resident" (Some 3) (Lru.find c "c")

let test_lru_replace_not_eviction () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "a" 10;
  Alcotest.(check (option int)) "value replaced" (Some 10) (Lru.find c "a");
  Alcotest.(check int) "replacement is not an eviction" 0 (Lru.evictions c)

let test_lru_cross_domain () =
  (* concurrent find/add from several domains: no crash, counters sum to
     the number of probes, and at most [capacity] keys stay resident *)
  let c = Lru.create ~capacity:8 in
  let probes_per_domain = 1000 in
  let worker seed () =
    let rng = Prng.create seed in
    for _ = 1 to probes_per_domain do
      let key = Printf.sprintf "k%d" (Prng.int rng 16) in
      match Lru.find c key with
      | Some _ -> ()
      | None -> Lru.add c key 0
    done
  in
  let domains = List.init 4 (fun i -> Domain.spawn (worker (i + 1))) in
  List.iter Domain.join domains;
  Alcotest.(check int) "every probe counted" (4 * probes_per_domain)
    (Lru.hits c + Lru.misses c);
  let resident =
    List.filter (fun k -> Lru.find c (Printf.sprintf "k%d" k) <> None) (List.init 16 Fun.id)
  in
  Alcotest.(check bool) "resident keys bounded by capacity" true (List.length resident <= 8)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "msoc_util"
    [ ( "units",
        [ Alcotest.test_case "db roundtrip" `Quick test_db_roundtrip;
          Alcotest.test_case "db identities" `Quick test_db_identities;
          Alcotest.test_case "dbm watts" `Quick test_dbm;
          Alcotest.test_case "dbm volts" `Quick test_dbm_volts;
          Alcotest.test_case "degrees" `Quick test_degrees ] );
      ( "floatx",
        [ Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "linspace" `Quick test_linspace;
          Alcotest.test_case "kahan sum" `Quick test_kahan_sum;
          Alcotest.test_case "mean/max_abs" `Quick test_mean_maxabs ] );
      ( "prng",
        [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "split" `Quick test_prng_split;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "uniform mean" `Quick test_prng_uniform_mean;
          Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int chi-square" `Quick test_prng_int_chi_square;
          Alcotest.test_case "int matches the closure reference" `Quick
            test_prng_int_matches_reference;
          Alcotest.test_case "int allocates nothing" `Quick test_prng_int_allocation_free ] );
      ( "interval",
        Alcotest.test_case "basics" `Quick test_interval_basics
        :: Alcotest.test_case "map monotone" `Quick test_interval_monotone
        :: qcheck [ prop_add_contains; prop_mul_contains; prop_sub_anti ] );
      ( "texttable",
        [ Alcotest.test_case "render" `Quick test_texttable_render;
          Alcotest.test_case "cells" `Quick test_texttable_cells ] );
      ( "lru",
        [ Alcotest.test_case "basics" `Quick test_lru_basics;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "replace is not eviction" `Quick test_lru_replace_not_eviction;
          Alcotest.test_case "cross-domain" `Quick test_lru_cross_domain ] ) ]
