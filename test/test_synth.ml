(* Unit and property tests for msoc_synth — the paper's methodology. *)

open Msoc_synth
module Path = Msoc_analog.Path
module Param = Msoc_analog.Param
module Stage = Msoc_analog.Stage
module Prng = Msoc_util.Prng
module Obs = Msoc_obs.Obs
module Trace = Msoc_obs.Trace
module Distribution = Msoc_stat.Distribution

let approx eps = Alcotest.float eps
let path = Path.default_receiver ()

(* ---- Spec ---- *)

let test_table1_parameter_sets () =
  (* The paper's Table 1 assignments. *)
  Alcotest.(check (list string)) "Amp"
    [ "Gain"; "IIP3"; "DC Offset"; "3rd Order Harmonic" ]
    (List.map Spec.kind_name (Spec.table1 Spec.Amp));
  Alcotest.(check (list string)) "Mixer"
    [ "Gain"; "IIP3"; "LO Isolation"; "NF"; "P1dB" ]
    (List.map Spec.kind_name (Spec.table1 Spec.Mixer));
  Alcotest.(check (list string)) "LO" [ "Frequency Error"; "Phase Noise" ]
    (List.map Spec.kind_name (Spec.table1 Spec.Lo));
  Alcotest.(check (list string)) "LPF" [ "G_passband"; "G_stopband"; "f_c"; "DR" ]
    (List.map Spec.kind_name (Spec.table1 Spec.Lpf));
  Alcotest.(check (list string)) "ADC" [ "Offset Error"; "INL"; "DNL"; "NF"; "DR" ]
    (List.map Spec.kind_name (Spec.table1 Spec.Adc))

let test_composable_partition () =
  (* gain and NF compose at the system level (measured as composites);
     IIP3 and f_c are block-specific (propagated and de-embedded) *)
  let composite =
    List.concat_map (fun c -> List.map snd c.Compose.covers)
      [ Compose.path_gain path; Compose.noise_figure path ]
  in
  let propagated =
    List.map (fun m -> m.Propagate.spec.Spec.kind)
      (Propagate.all_for_path path ~strategy:Propagate.Adaptive)
  in
  let composes kind = List.mem kind composite && not (List.mem kind propagated) in
  Alcotest.(check bool) "gain composes" true (composes Spec.Gain);
  Alcotest.(check bool) "NF composes" true (composes Spec.Noise_figure);
  Alcotest.(check bool) "IIP3 does not" true
    (List.mem Spec.Iip3 propagated && not (composes Spec.Iip3));
  Alcotest.(check bool) "fc does not" true
    (List.mem Spec.Cutoff_freq propagated && not (composes Spec.Cutoff_freq))

let test_bounds () =
  Alcotest.(check bool) "at_least pass" true (Spec.passes (Spec.At_least 2.0) 2.0);
  Alcotest.(check bool) "at_least fail" false (Spec.passes (Spec.At_least 2.0) 1.99);
  Alcotest.(check bool) "at_most" true (Spec.passes (Spec.At_most 2.0) 1.0);
  Alcotest.(check bool) "within" true (Spec.passes (Spec.Within { lo = 1.0; hi = 2.0 }) 1.5);
  Alcotest.(check bool) "within fail" false (Spec.passes (Spec.Within { lo = 1.0; hi = 2.0 }) 2.5)

let test_receiver_specs_complete () =
  let specs = Spec.of_path path in
  Alcotest.(check int) "spec count" 21 (List.length specs);
  (* every Table-1 parameter appears *)
  List.iter
    (fun block ->
      List.iter
        (fun kind ->
          if
            not
              (List.exists (fun s -> s.Spec.block = block && s.Spec.kind = kind) specs)
          then
            Alcotest.failf "missing spec %s.%s" (Spec.block_name block) (Spec.kind_name kind))
        (Spec.table1 block))
    [ Spec.Amp; Spec.Mixer; Spec.Lo; Spec.Lpf; Spec.Adc; Spec.Digital_filter ]

(* The conventional name of the block parameter each spec kind bounds. *)
let source_name = function
  | Spec.Gain | Spec.Passband_gain -> Some "gain_db"
  | Spec.Iip3 -> Some "iip3_dbm"
  | Spec.Dc_offset -> Some "dc_offset_v"
  | Spec.Lo_isolation -> Some "lo_isolation_db"
  | Spec.Noise_figure -> Some "nf_db"
  | Spec.P1db -> Some "p1db_dbm"
  | Spec.Freq_error -> Some "freq_error_hz"
  | Spec.Phase_noise -> Some "phase_noise_deg_rms"
  | Spec.Stopband_gain -> Some "stopband_db"
  | Spec.Cutoff_freq -> Some "cutoff_hz"
  | Spec.Offset_error -> Some "offset_error_v"
  | Spec.Inl -> Some "inl_lsb"
  | Spec.Dnl -> Some "dnl_lsb"
  | Spec.Harmonic3 | Spec.Dynamic_range | Spec.Stuck_at_coverage -> None

(* Every spec carries the very [Param.t] it bounds: the one its owner's row
   of that name reads, except a sigma-delta's offset, which is the
   comparator's; HD3, dynamic range and stuck-at coverage have none. *)
let test_spec_sources () =
  List.iter
    (fun name ->
      let path = Option.get (Msoc_analog.Topology.build name) in
      List.iter
        (fun (spec : Spec.t) ->
          let expected =
            match (spec.Spec.kind, (Path.digitizer path).Stage.block) with
            | Spec.Offset_error, Stage.Sd_adc { sd; _ } ->
              Some sd.Msoc_analog.Sigma_delta.comparator_offset_v
            | kind, _ ->
              Option.map
                (fun n -> Path.param path ~stage:spec.Spec.stage ~name:n)
                (source_name kind)
          in
          match (expected, spec.Spec.source) with
          | None, None -> ()
          | Some p, Some q when p == q -> ()
          | _ -> Alcotest.failf "%s: %a has the wrong source" name Spec.pp spec)
        (Spec.of_path path))
    Msoc_analog.Topology.names

(* ---- Accuracy ---- *)

let test_budget_totals () =
  let b =
    Accuracy.create ~instrument_err:0.1
      [ { Accuracy.source = "a"; err = 0.3 }; { Accuracy.source = "b"; err = -0.4 } ]
  in
  Alcotest.check (approx 1e-12) "worst case adds magnitudes" 0.8 (Accuracy.worst_case b);
  Alcotest.check (approx 1e-9) "rss" (sqrt ((0.1 *. 0.1) +. (0.3 *. 0.3) +. (0.4 *. 0.4)))
    (Accuracy.rss b)

(* ---- Compose ---- *)

let test_path_gain_composition () =
  let c = Compose.path_gain path in
  Alcotest.check (approx 1e-9) "nominal 26 dB" 26.0 c.Compose.nominal;
  Alcotest.check (approx 1e-9) "tolerance 2.8 dB" 2.8 c.Compose.tolerance;
  (* measured directly: accuracy far better than the accumulated tolerance *)
  Alcotest.(check bool) "composite accuracy small" true
    (Accuracy.worst_case c.Compose.accuracy < 0.5);
  Alcotest.(check int) "covers three gains" 3 (List.length c.Compose.covers)

let test_friis_formula () =
  (* the cascade NF is Friis' formula over the path's stages,
     F = F1 + (F2 - 1)/G1 + (F3 - 1)/(G1 G2) + ..., in linear power *)
  let lin db = Float.pow 10.0 (db /. 10.0) in
  let nfs =
    Array.of_list (List.map (fun p -> lin p.Param.nominal) (List.filter_map Stage.nf_param path.Path.stages))
  in
  let gains = Array.of_list (List.map (fun (_, p) -> lin p.Param.nominal) (Path.gain_stages path)) in
  Alcotest.(check int) "one gain between each pair of noisy stages" (Array.length nfs - 1)
    (Array.length gains);
  let factor = ref nfs.(0) and cumulative = ref 1.0 in
  for i = 1 to Array.length nfs - 1 do
    cumulative := !cumulative *. gains.(i - 1);
    factor := !factor +. ((nfs.(i) -. 1.0) /. !cumulative)
  done;
  Alcotest.check (approx 1e-9) "friis" (10.0 *. Float.log10 !factor)
    (Compose.noise_figure path).Compose.nominal

let test_friis_first_stage_dominates () =
  (* with the low-noise amplifier in front, the later stages' noise is
     divided by its gain; without it the mixer leads and the cascade is
     noisier *)
  let bypass = Option.get (Msoc_analog.Topology.build "amp-bypass") in
  Alcotest.(check bool) "LNA first wins" true
    ((Compose.noise_figure path).Compose.nominal < (Compose.noise_figure bypass).Compose.nominal)

let test_cascade_nf () =
  let c = Compose.noise_figure path in
  Alcotest.(check bool) "NF slightly above amp NF" true
    (c.Compose.nominal > 3.0 && c.Compose.nominal < 6.0);
  Alcotest.(check bool) "tolerance positive" true (c.Compose.tolerance > 0.0)

let test_dynamic_range () =
  let c = Compose.dynamic_range path in
  Alcotest.(check bool) "DR large and positive" true (c.Compose.nominal > 60.0)

let test_boundary_checks_cover_extremes () =
  let checks = Compose.boundary_checks path ~test_level_dbm:Propagate.standard_test_level_dbm in
  Alcotest.(check int) "three checks" 3 (List.length checks);
  let levels = List.map (fun c -> c.Compose.stimulus_dbm) checks in
  let max_level = List.fold_left Float.max neg_infinity levels in
  let min_level = List.fold_left Float.min infinity levels in
  Alcotest.(check bool) "high-side check above test level" true (max_level > -27.0);
  Alcotest.(check bool) "low-side check near the noise floor" true (min_level <= -75.0)

let test_saturation_analysis () =
  let reports = Compose.saturation_analysis path ~input_dbm:(-27.0) in
  Alcotest.(check int) "three stages" 3 (List.length reports);
  List.iter
    (fun r ->
      if r.Compose.headroom_db < 0.0 then
        Alcotest.failf "block %s saturates at the standard level" r.Compose.block)
    reports;
  (* at a much hotter input the mixer loses its headroom first *)
  let hot = Compose.saturation_analysis path ~input_dbm:(-2.0) in
  let mixer = List.find (fun r -> r.Compose.block = "mixer") hot in
  Alcotest.(check bool) "mixer headroom gone" true (mixer.Compose.headroom_db < 0.0)

(* ---- Propagate ---- *)

let test_adaptive_beats_nominal_iip3 () =
  let nominal = Propagate.mixer_iip3 path ~strategy:Propagate.Nominal_gains in
  let adaptive = Propagate.mixer_iip3 path ~strategy:Propagate.Adaptive in
  Alcotest.(check bool) "Fig. 4: adaptive error smaller" true
    (Propagate.err adaptive < Propagate.err nominal);
  (* the adaptive method depends only on Block A's (the amp's) tolerance *)
  Alcotest.check (approx 1e-9) "adaptive err = amp tol + instrument"
    ((Path.param path ~stage:"Amp" ~name:"gain_db").Param.tol +. 0.1)
    (Propagate.err adaptive);
  Alcotest.(check bool) "adaptive needs the path-gain prerequisite" true
    (List.mem "path gain" adaptive.Propagate.prerequisites)

let test_adaptive_beats_nominal_everywhere () =
  List.iter
    (fun (make : Path.t -> strategy:Propagate.strategy -> Propagate.t) ->
      let n = make path ~strategy:Propagate.Nominal_gains in
      let a = make path ~strategy:Propagate.Adaptive in
      if Propagate.err a >= Propagate.err n then
        Alcotest.failf "adaptive not better for %s"
          (Spec.kind_name n.Propagate.spec.Spec.kind))
    [ Propagate.mixer_iip3; Propagate.mixer_p1db; Propagate.lpf_cutoff;
      Propagate.amp_iip3; Propagate.mixer_lo_isolation ]

let test_fig4_trial_within_budget () =
  (* Fig. 4's claim as an assertion: over seeds 1-20 x 2000 trials, every
     de-embedding error lies within its strategy's worst-case budget, and
     the adaptive strategy's RMS error is below the nominal one's *)
  let rms strategy =
    let budget = Propagate.err (Propagate.mixer_iip3 path ~strategy) in
    let sum_sq = ref 0.0 and n = ref 0 in
    for seed = 1 to 20 do
      Array.iteri
        (fun i e ->
          if Float.abs e > budget then
            Alcotest.failf "%s, seed %d, trial %d: |error| %g exceeds the budget %g"
              (Propagate.strategy_name strategy) seed i (Float.abs e) budget;
          sum_sq := !sum_sq +. (e *. e);
          incr n)
        (Msoc_stat.Monte_carlo.sample_array_pooled ~trials:2000 ~rng:(Prng.create seed)
           ~f:(Propagate.mixer_iip3_trial path ~strategy)
           ())
    done;
    sqrt (!sum_sq /. float_of_int !n)
  in
  let nominal = rms Propagate.Nominal_gains and adaptive = rms Propagate.Adaptive in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive RMS %.3f dB < nominal RMS %.3f dB" adaptive nominal)
    true (adaptive < nominal)

let test_cutoff_error_sources () =
  let nominal = Propagate.lpf_cutoff path ~strategy:Propagate.Nominal_gains in
  (* gain tolerance divided by the roll-off slope dominates *)
  let gain_tol = (Path.param path ~stage:"LPF" ~name:"gain_db").Param.tol in
  let slope_term =
    List.find
      (fun c -> String.equal c.Accuracy.source "G_passband tol via roll-off slope")
      nominal.Propagate.budget.Accuracy.contributions
  in
  let slope = gain_tol /. slope_term.Accuracy.err in
  Alcotest.(check bool) "slope is physical" true (slope > 1e-6 && slope < 1e-3);
  Alcotest.(check bool) "error includes the slope-amplified gain term" true
    (Propagate.err nominal > gain_tol /. slope)

let test_all_for_path_unique_specs () =
  let ms = Propagate.all_for_path path ~strategy:Propagate.Adaptive in
  Alcotest.(check int) "eight measurements" 8 (List.length ms);
  let keys =
    List.map (fun m -> (m.Propagate.spec.Spec.block, m.Propagate.spec.Spec.kind)) ms
  in
  Alcotest.(check int) "unique targets" (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* ---- Coverage ---- *)

let pop = Coverage.defective_population ~nominal:10.0 ~tol:1.5

let test_zero_error_zero_losses () =
  let l =
    Coverage.analytic ~population:pop ~bound:(Spec.At_least 8.5)
      ~error:(Coverage.Uniform_err 0.0) ~threshold_shift:0.0
  in
  Alcotest.check (approx 1e-6) "fcl" 0.0 l.Coverage.fcl;
  Alcotest.check (approx 1e-6) "yl" 0.0 l.Coverage.yl

let test_threshold_rows_structure () =
  (* The paper's Table-2 pattern: tightening kills FCL, loosening kills YL. *)
  let rows =
    Coverage.threshold_rows ~population:pop ~bound:(Spec.At_least 8.5) ~err:1.1
      ~error:(Coverage.Uniform_err 1.1)
  in
  match rows with
  | [ (_, at_tol); (_, tightened); (_, loosened) ] ->
    Alcotest.check (approx 1e-6) "tightened FCL -> 0" 0.0 tightened.Coverage.fcl;
    Alcotest.check (approx 1e-6) "loosened YL -> 0" 0.0 loosened.Coverage.yl;
    Alcotest.(check bool) "tightened YL grows" true
      (tightened.Coverage.yl > at_tol.Coverage.yl);
    Alcotest.(check bool) "loosened FCL grows" true
      (loosened.Coverage.fcl > at_tol.Coverage.fcl);
    Alcotest.(check bool) "at-tol both positive" true
      (at_tol.Coverage.fcl > 0.0 && at_tol.Coverage.yl > 0.0)
  | _ -> Alcotest.fail "row count"

let test_monte_carlo_matches_analytic () =
  let bound = Spec.At_least 8.5 in
  let err = 1.1 in
  let analytic =
    Coverage.analytic ~population:pop ~bound ~error:(Coverage.Uniform_err err)
      ~threshold_shift:0.0
  in
  let rng = Prng.create 2024 in
  let mc, faulty, good =
    Coverage.monte_carlo ~trials:200000 ~rng
      ~sample_true:(fun g -> Distribution.sample pop g)
      ~measure:(fun g x -> x +. Prng.uniform g ~lo:(-.err) ~hi:err)
      ~bound ~threshold_shift:0.0
  in
  Alcotest.(check bool) "populations nonempty" true (faulty > 1000 && good > 1000);
  Alcotest.check (approx 0.01) "fcl agreement" analytic.Coverage.fcl mc.Coverage.fcl;
  Alcotest.check (approx 0.01) "yl agreement" analytic.Coverage.yl mc.Coverage.yl

let test_two_sided_bound () =
  let bound = Spec.Within { lo = 8.5; hi = 11.5 } in
  let l =
    Coverage.analytic ~population:pop ~bound ~error:(Coverage.Uniform_err 0.5)
      ~threshold_shift:0.0
  in
  Alcotest.(check bool) "two-sided losses positive" true
    (l.Coverage.fcl > 0.0 && l.Coverage.yl > 0.0)

let test_tradeoff_monotone () =
  let shifts = Msoc_util.Floatx.linspace (-1.0) 1.0 9 in
  let curve =
    Coverage.fcl_yl_tradeoff ~population:pop ~bound:(Spec.At_least 8.5)
      ~error:(Coverage.Uniform_err 0.8) ~shifts
  in
  (* FCL decreases and YL increases along increasing shift. *)
  Array.iteri
    (fun i (_, l) ->
      if i > 0 then begin
        let _, prev = curve.(i - 1) in
        if l.Coverage.fcl > prev.Coverage.fcl +. 1e-9 then Alcotest.fail "FCL not monotone";
        if l.Coverage.yl < prev.Coverage.yl -. 1e-9 then Alcotest.fail "YL not monotone"
      end)
    curve

let prop_losses_are_probabilities =
  QCheck.Test.make ~name:"losses always in [0,1]" ~count:100
    (QCheck.triple (QCheck.float_range 0.1 3.0) (QCheck.float_range 0.0 2.0)
       (QCheck.float_range (-1.5) 1.5))
    (fun (tol, err, shift) ->
      let population = Coverage.defective_population ~nominal:0.0 ~tol in
      let l =
        Coverage.analytic ~population ~bound:(Spec.At_least (-.tol))
          ~error:(Coverage.Uniform_err err) ~threshold_shift:shift
      in
      l.Coverage.fcl >= 0.0 && l.Coverage.fcl <= 1.0 && l.Coverage.yl >= 0.0
      && l.Coverage.yl <= 1.0)

(* [Coverage.analytic] before its three loss integrals shared one pass:
   three composite-Simpson integrals ([n = 800] per segment), each a
   closure whose every node calls [Spec.passes], [Distribution.pdf] and
   the partially applied acceptance probability.  Kept here as the oracle
   that pins the fused pass bit for bit. *)
let reference_int ~f ~lo ~hi ~n =
  assert (lo <= hi);
  if lo = hi then 0.0
  else begin
    let n = if n mod 2 = 0 then n else n + 1 in
    let h = (hi -. lo) /. float_of_int n in
    let acc = ref (f lo +. f hi) in
    for i = 1 to n - 1 do
      let x = lo +. (float_of_int i *. h) in
      let w = if i mod 2 = 1 then 4.0 else 2.0 in
      acc := !acc +. (w *. f x)
    done;
    !acc *. h /. 3.0
  end

let reference_accept ~bound ~error ~threshold_shift x =
  let prob_ge threshold =
    match error with
    | Coverage.Uniform_err err ->
      if err <= 0.0 then (if x >= threshold then 1.0 else 0.0)
      else Msoc_util.Floatx.clamp ~lo:0.0 ~hi:1.0 ((x +. err -. threshold) /. (2.0 *. err))
    | Coverage.Normal_err err ->
      if err <= 0.0 then (if x >= threshold then 1.0 else 0.0)
      else begin
        let sigma = err /. 3.0 in
        1.0 -. Distribution.cdf (Distribution.normal ~mean:0.0 ~sigma) (threshold -. x)
      end
  in
  let prob_le threshold = 1.0 -. prob_ge threshold in
  match bound with
  | Spec.At_least m -> prob_ge (m +. threshold_shift)
  | Spec.At_most m -> prob_le (m -. threshold_shift)
  | Spec.Within { lo; hi } ->
    let lo' = lo +. threshold_shift and hi' = hi -. threshold_shift in
    if lo' >= hi' then 0.0 else Float.max 0.0 (prob_le hi' -. prob_le lo')

let reference_analytic ~population ~bound ~error ~threshold_shift =
  let mean = Distribution.mean population and sigma = Distribution.stddev population in
  let lo = mean -. (10.0 *. sigma) and hi = mean +. (10.0 *. sigma) in
  let err_magnitude =
    match error with Coverage.Uniform_err e | Coverage.Normal_err e -> Float.abs e
  in
  let kinks m = [ m; m +. threshold_shift; m +. threshold_shift -. err_magnitude;
                  m +. threshold_shift +. err_magnitude; m -. threshold_shift;
                  m -. threshold_shift -. err_magnitude; m -. threshold_shift +. err_magnitude ]
  in
  let boundaries =
    match bound with
    | Spec.At_least m -> kinks m
    | Spec.At_most m -> kinks m
    | Spec.Within { lo = a; hi = b } -> kinks a @ kinks b
  in
  let cuts =
    List.sort_uniq compare (lo :: hi :: List.filter (fun b -> b > lo && b < hi) boundaries)
  in
  let integrate f =
    let rec over acc = function
      | a :: (b :: _ as rest) -> over (acc +. reference_int ~f ~lo:a ~hi:b ~n:800) rest
      | [ _ ] | [] -> acc
    in
    over 0.0 cuts
  in
  let pdf = Distribution.pdf population in
  let accept = reference_accept ~bound ~error ~threshold_shift in
  let good x = Spec.passes bound x in
  let p_good = integrate (fun x -> if good x then pdf x else 0.0) in
  let p_faulty = 1.0 -. p_good in
  let escape = integrate (fun x -> if good x then 0.0 else pdf x *. accept x) in
  let rejected_good = integrate (fun x -> if good x then pdf x *. (1.0 -. accept x) else 0.0) in
  let clamp01 = Msoc_util.Floatx.clamp ~lo:0.0 ~hi:1.0 in
  { Coverage.fcl = (if p_faulty <= 1e-12 then 0.0 else clamp01 (escape /. p_faulty));
    yl = (if p_good <= 1e-12 then 0.0 else clamp01 (rejected_good /. p_good)) }

(* Normal populations (the only kind the paper's tolerance model
   builds); one- and two-sided bounds placed across the population, some
   [Within] narrower than twice the shift (so nothing is accepted); both
   error models, with an error of 0 and above 0; and shifts across
   [-2 err, 2 err]. *)
let analytic_case_gen =
  let open QCheck.Gen in
  let* mean = float_range (-5.0) 5.0 and* spread = float_range 0.05 3.0 in
  let population = Distribution.normal ~mean ~sigma:spread in
  let* at = float_range (-3.0) 3.0 >|= fun k -> mean +. (k *. spread) in
  let* width = float_range 0.0 4.0 >|= fun k -> k *. spread in
  let* bound =
    oneofl [ Spec.At_least at; Spec.At_most at; Spec.Within { lo = at; hi = at +. width } ]
  in
  let* err =
    frequency [ (1, return 0.0); (4, float_range 0.01 2.0 >|= fun k -> k *. spread) ]
  in
  let* error = oneofl [ Coverage.Uniform_err err; Coverage.Normal_err err ] in
  let+ shift = float_range (-2.0) 2.0 >|= fun k -> k *. err in
  (population, bound, error, shift)

let print_analytic_case (population, bound, error, shift) =
  let model, err =
    match error with
    | Coverage.Uniform_err e -> ("Uniform_err", e)
    | Coverage.Normal_err e -> ("Normal_err", e)
  in
  Format.asprintf "%a, bound %a, %s %h, shift %h" Distribution.pp population Spec.pp_bound bound
    model err shift

let prop_analytic_matches_reference =
  QCheck.Test.make ~name:"analytic = three-closure reference, bit for bit" ~count:300
    (QCheck.make ~print:print_analytic_case analytic_case_gen)
    (fun (population, bound, error, threshold_shift) ->
      let bits l = (Int64.bits_of_float l.Coverage.fcl, Int64.bits_of_float l.Coverage.yl) in
      bits (Coverage.analytic ~population ~bound ~error ~threshold_shift)
      = bits (reference_analytic ~population ~bound ~error ~threshold_shift))

(* ---- Plan ---- *)

let test_plan_structure () =
  let plan = Plan.synthesize path in
  Alcotest.(check bool) "plan has a dozen entries" true (List.length plan.Plan.entries >= 10);
  let composed_first =
    match plan.Plan.entries with
    | Plan.Composed _ :: _ -> true
    | (Plan.Propagated _ | Plan.Digital_filter_test _) :: _ | [] -> false
  in
  Alcotest.(check bool) "composites (adaptive prerequisites) first" true composed_first;
  let has_digital =
    List.exists
      (function Plan.Digital_filter_test _ -> true | Plan.Composed _ | Plan.Propagated _ -> false)
      plan.Plan.entries
  in
  Alcotest.(check bool) "digital filter test present" true has_digital

let test_plan_table1 () =
  let t1 = Plan.table1 in
  Alcotest.(check int) "six blocks" 6 (List.length t1);
  Alcotest.(check (list string)) "mixer row"
    [ "Gain"; "IIP3"; "LO Isolation"; "NF"; "P1dB" ]
    (List.assoc "Mixer" t1)

let test_plan_dft_flags () =
  let plan = Plan.synthesize path in
  (* With strict limits everything needs DFT; with lax limits nothing does. *)
  let strict = Plan.dft_required plan ~max_fcl:0.0 ~max_yl:0.0 in
  let lax = Plan.dft_required plan ~max_fcl:1.0 ~max_yl:1.0 in
  Alcotest.(check bool) "strict flags some" true (List.length strict > 0);
  Alcotest.(check int) "lax flags none" 0 (List.length lax)

let test_plan_nominal_strategy_worse () =
  let adaptive = Plan.synthesize ~strategy:Propagate.Adaptive path in
  let nominal = Plan.synthesize ~strategy:Propagate.Nominal_gains path in
  let total_fcl plan =
    List.fold_left
      (fun acc entry ->
        match entry with
        | Plan.Propagated { losses; _ } -> acc +. losses.Coverage.fcl
        | Plan.Composed _ | Plan.Digital_filter_test _ -> acc)
      0.0 plan.Plan.entries
  in
  Alcotest.(check bool) "adaptive plan loses less coverage" true
    (total_fcl adaptive < total_fcl nominal)

(* ---- Plan scheduling ---- *)

let test_schedule_complete_and_ordered () =
  let plan = Plan.synthesize path in
  let steps = Plan.schedule plan in
  Alcotest.(check int) "every entry scheduled" (List.length plan.Plan.entries)
    (List.length steps);
  (* every prerequisite must appear at an earlier position *)
  let position name =
    match List.find_opt (fun s -> String.equal s.Plan.name name) steps with
    | Some s -> s.Plan.position
    | None -> Alcotest.failf "prerequisite %S not scheduled" name
  in
  List.iter
    (fun step ->
      List.iter
        (fun prereq ->
          if position prereq >= step.Plan.position then
            Alcotest.failf "%s scheduled before its prerequisite %s" step.Plan.name prereq)
        step.Plan.prerequisites)
    steps

let test_schedule_composites_first () =
  let steps = Plan.schedule (Plan.synthesize path) in
  match steps with
  | first :: _ -> Alcotest.(check string) "path gain first" "path gain" first.Plan.name
  | [] -> Alcotest.fail "empty schedule"

let test_schedule_time_estimate () =
  let steps = Plan.schedule (Plan.synthesize path) in
  let total = Plan.total_test_time steps in
  Alcotest.(check bool) "positive and sane" true (total > 0.05 && total < 10.0);
  (* sweeps dominate *)
  let p1db = List.find (fun s -> s.Plan.name = "mixer p1db") steps in
  Alcotest.(check bool) "sweep costs more than a read" true
    (p1db.Plan.cost.Cost.captures > 5);
  (* each step's seconds is the pure cycle count at the digitizer rate *)
  List.iter
    (fun s ->
      Alcotest.(check (float 1e-12)) "seconds derived from cycles"
        (float_of_int (Cost.ate_cycles s.Plan.cost) /. s.Plan.cost.Cost.sample_rate_hz)
        (Cost.seconds s.Plan.cost))
    steps;
  (* the default receiver settles in 48 cycles; the p1db sweep pays them
     on each of its 14 captures *)
  Alcotest.(check int) "p1db ate cycles" (64 + (14 * (48 + 4096)))
    (Cost.ate_cycles p1db.Plan.cost)

(* ---- Dft advisor ---- *)

let test_dft_access_removes_contributions () =
  let m = Propagate.mixer_iip3 path ~strategy:Propagate.Nominal_gains in
  (* limits below zero flag every measurement *)
  let r =
    List.find
      (fun r -> Propagate.parameter_name r.Dft.measurement = Propagate.parameter_name m)
      (Dft.recommend
         (Plan.synthesize ~strategy:Propagate.Nominal_gains path)
         ~max_fcl:(-1.0) ~max_yl:(-1.0))
  in
  Alcotest.(check bool) "budget shrinks to instrument" true
    (Accuracy.worst_case r.Dft.budget_with < Propagate.err m);
  Alcotest.(check bool) "fcl improves" true (r.Dft.fcl_reduction > 0.0);
  Alcotest.(check bool) "yl improves" true (r.Dft.yl_reduction > 0.0)

let test_dft_recommendations_sorted () =
  let recs = Dft.recommend (Plan.synthesize path) ~max_fcl:0.05 ~max_yl:0.01 in
  Alcotest.(check bool) "some recommendations under strict limits" true
    (List.length recs > 0);
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Dft.fcl_reduction >= b.Dft.fcl_reduction && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted by fcl reduction" true (sorted recs)

let test_dft_lax_limits_empty () =
  Alcotest.(check int) "no recommendations when everything passes" 0
    (List.length (Dft.recommend (Plan.synthesize path) ~max_fcl:1.0 ~max_yl:1.0))

(* ---- Measure (virtual tester) ---- *)

(* one procedure's result from the tester's full run against [part] *)
let validation part ~strategy parameter =
  List.find
    (fun v -> String.equal v.Measure.parameter parameter)
    (Measure.validate_part path part ~strategy)

let test_measure_path_gain () =
  let v = validation (Path.nominal_part path) ~strategy:Propagate.Adaptive "path gain (dB)" in
  Alcotest.check (approx 0.3) "nominal path gain measured" 26.0 v.Measure.measured

let test_measure_lo_frequency () =
  let part = Path.nominal_part path in
  let shifted = Path.with_value path part ~stage:"LO" ~name:"freq_error_hz" 137.0 in
  let v = validation shifted ~strategy:Propagate.Adaptive "LO frequency error (Hz)" in
  Alcotest.check (Alcotest.float 30.0) "LO error recovered" 137.0 v.Measure.measured

let test_measure_validations_within_budget () =
  let part = Path.nominal_part path in
  List.iter
    (fun v ->
      if Float.abs v.Measure.error > v.Measure.budget then
        Alcotest.failf "%s: error %g exceeds budget %g" v.Measure.parameter v.Measure.error
          v.Measure.budget)
    (Measure.validate_part path part ~strategy:Propagate.Adaptive)

(* The procedures share one session engine across domains; every pool
   size must give the serial results bit for bit. *)
let test_measure_validate_pool_sizes () =
  let part = Path.sample_part path (Prng.create 5) in
  let measured pool =
    List.map
      (fun v -> (v.Measure.parameter, Int64.bits_of_float v.Measure.measured))
      (Measure.validate_part ?pool path part ~strategy:Propagate.Adaptive)
  in
  let serial = measured None in
  List.iter
    (fun size ->
      Msoc_util.Pool.with_pool ~size (fun pool ->
          Alcotest.(check (list (pair string int64)))
            (Printf.sprintf "pool size %d" size)
            serial
            (measured (Some pool))))
    [ 1; 2; 4 ]

let test_measure_adaptive_beats_nominal_p1db () =
  (* a part whose amp gain sits at the tolerance corner: the nominal-line
     method confuses the gain deficit with compression *)
  let part = Path.nominal_part path in
  let low_gain = Path.with_value path part ~stage:"Amp" ~name:"gain_db" 19.0 in
  let error strategy = (validation low_gain ~strategy "mixer P1dB (dBm)").Measure.error in
  let nominal = error Propagate.Nominal_gains and adaptive = error Propagate.Adaptive in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive |%.2f| < nominal |%.2f| error" adaptive nominal)
    true
    (Float.abs adaptive < Float.abs nominal)

(* ---- Digital test ---- *)

let small_config =
  { Digital_test.default_config with
    Digital_test.taps = 5;
    input_bits = 8;
    coeff_bits = 6 }

let test_digital_build () =
  let fir = Digital_test.build small_config in
  Alcotest.(check int) "taps" 5 (Array.length fir.Msoc_netlist.Fir_netlist.coeffs);
  Alcotest.(check int) "input width" 8 fir.Msoc_netlist.Fir_netlist.width_in;
  Alcotest.(check bool) "has faults" true
    (Array.length (Digital_test.collapsed_faults fir) > 100)

let test_ideal_codes_range () =
  let codes =
    Digital_test.ideal_codes small_config ~sample_rate:1e6 ~samples:256 ~freqs:[ 90e3 ]
      ~amplitude_fs:0.9
  in
  Alcotest.(check int) "length" 256 (Array.length codes);
  let peak = Array.fold_left (fun m c -> max m (abs c)) 0 codes in
  Alcotest.(check bool) "uses most of the range" true (peak > 100 && peak <= 127)

let run_small_coverage ~tones ~samples =
  let fir = Digital_test.build small_config in
  let faults = Digital_test.collapsed_faults fir in
  let fs = 1e6 in
  let f1 = Digital_test.coherent_tone ~sample_rate:fs ~samples ~target:90e3 in
  let freqs =
    if tones = 1 then [ f1 ]
    else [ f1; Digital_test.coherent_tone ~sample_rate:fs ~samples ~target:110e3 ]
  in
  let amplitude_fs = if tones = 1 then 0.9 else 0.45 in
  let codes =
    Digital_test.ideal_codes small_config ~sample_rate:fs ~samples ~freqs ~amplitude_fs
  in
  ( Digital_test.spectral_coverage small_config fir ~sample_rate:fs ~input_codes:codes
      ~reference_codes:codes ~tone_freqs:freqs ~faults,
    fir,
    codes,
    freqs )

let test_two_tone_beats_one_tone () =
  (* On the small filter the two stimuli are statistically close; only a
     gross inversion would indicate a bug.  The strict paper ordering is
     asserted on the full 13-tap configuration below (slow test). *)
  let one, _, _, _ = run_small_coverage ~tones:1 ~samples:512 in
  let two, _, _, _ = run_small_coverage ~tones:2 ~samples:512 in
  Alcotest.(check bool)
    (Printf.sprintf "two-tone %.3f ~>= one-tone %.3f" two.Digital_test.coverage
       one.Digital_test.coverage)
    true
    (two.Digital_test.coverage >= one.Digital_test.coverage -. 0.01);
  Alcotest.(check bool) "meaningful coverage" true (two.Digital_test.coverage > 0.7)

let test_full_config_two_tone_strictly_better () =
  (* Paper §3: 89.6% (1-tone) vs 95.5% (2-tone) on the real filter. *)
  let cfg = Digital_test.default_config in
  let fir = Digital_test.build cfg in
  let faults = Digital_test.collapsed_faults fir in
  let fs = 1e6 and samples = 2048 in
  let f1 = Digital_test.coherent_tone ~sample_rate:fs ~samples ~target:90e3 in
  let f2 = Digital_test.coherent_tone ~sample_rate:fs ~samples ~target:110e3 in
  let run freqs amplitude_fs =
    let codes = Digital_test.ideal_codes cfg ~sample_rate:fs ~samples ~freqs ~amplitude_fs in
    Digital_test.spectral_coverage cfg fir ~sample_rate:fs ~input_codes:codes
      ~reference_codes:codes ~tone_freqs:freqs ~faults
  in
  let one = run [ f1 ] 0.9 in
  let two = run [ f1; f2 ] 0.45 in
  Alcotest.(check bool)
    (Printf.sprintf "2-tone %.3f > 1-tone %.3f" two.Digital_test.coverage
       one.Digital_test.coverage)
    true
    (two.Digital_test.coverage > one.Digital_test.coverage);
  Alcotest.(check bool) "high coverage" true (two.Digital_test.coverage > 0.8)

let test_detection_consistency () =
  let det, _, _, _ = run_small_coverage ~tones:2 ~samples:512 in
  Alcotest.(check int) "detected + undetected = total"
    det.Digital_test.total
    (det.Digital_test.detected + Array.length det.Digital_test.undetected);
  Alcotest.(check int) "deviation entries match undetected"
    (Array.length det.Digital_test.undetected)
    (Array.length det.Digital_test.undetected_max_dev_lsb)

let test_undetected_have_small_effect () =
  (* The paper verifies escapes perturb the output by < 1%; ours must be
     small relative to the strongest detected effects. *)
  let det, fir, _, _ = run_small_coverage ~tones:2 ~samples:512 in
  let full_scale =
    fir.Msoc_netlist.Fir_netlist.scale
    *. float_of_int ((1 lsl (small_config.Digital_test.input_bits - 1)) - 1)
    *. 2.0
  in
  let median =
    if Array.length det.Digital_test.undetected_max_dev_lsb = 0 then 0.0
    else Msoc_stat.Describe.median det.Digital_test.undetected_max_dev_lsb
  in
  Alcotest.(check bool)
    (Printf.sprintf "median escape deviation %.4g below 10%% of full scale %.4g" median
       full_scale)
    true
    (median < 0.1 *. full_scale)

let test_second_pass_increases_coverage () =
  let det, fir, _, freqs = run_small_coverage ~tones:2 ~samples:256 in
  let fs = 1e6 in
  let samples = 1024 in
  let codes =
    Digital_test.ideal_codes small_config ~sample_rate:fs ~samples ~freqs ~amplitude_fs:0.45
  in
  let merged =
    Digital_test.second_pass small_config fir ~sample_rate:fs ~input_codes:codes
      ~reference_codes:codes ~tone_freqs:freqs ~previous:det
  in
  Alcotest.(check int) "total preserved" det.Digital_test.total merged.Digital_test.total;
  Alcotest.(check bool) "coverage monotone" true
    (merged.Digital_test.coverage >= det.Digital_test.coverage)

let test_noisy_input_lowers_coverage () =
  (* Perturb the stimulus with noise; the noise-derived tolerance must rise
     and coverage must drop relative to the ideal run. *)
  let ideal, fir, codes, freqs = run_small_coverage ~tones:2 ~samples:512 in
  let g = Prng.create 9 in
  let noisy =
    Array.map
      (fun c ->
        let v = c + (Prng.int g 13) - 6 in
        max (-128) (min 127 v))
      codes
  in
  let faults = Digital_test.collapsed_faults fir in
  let det =
    Digital_test.spectral_coverage small_config fir ~sample_rate:1e6 ~input_codes:noisy
      ~reference_codes:codes ~tone_freqs:freqs ~faults
  in
  Alcotest.(check bool)
    (Printf.sprintf "noisy %.3f < ideal %.3f" det.Digital_test.coverage
       ideal.Digital_test.coverage)
    true
    (det.Digital_test.coverage < ideal.Digital_test.coverage);
  Alcotest.(check bool) "tolerance floor rose" true
    (det.Digital_test.noise_floor_db > ideal.Digital_test.noise_floor_db)

(* [false_alarm] judges a fault-free capture exactly as a faulty stream
   is judged: the noisy capture the floor was estimated from stays inside
   the noise-derived tolerance, and that capture plus a pass-band tone away
   from the excluded bins, well above the floor, is flagged — at a
   power-of-two length and at a Bluestein one. *)
let test_false_alarm () =
  let fir = Digital_test.build small_config in
  let fs = 1e6 in
  List.iter
    (fun samples ->
      let freqs =
        List.map
          (fun target -> Digital_test.coherent_tone ~sample_rate:fs ~samples ~target)
          [ 90e3; 110e3 ]
      in
      let reference_codes =
        Digital_test.ideal_codes small_config ~sample_rate:fs ~samples ~freqs
          ~amplitude_fs:0.45
      in
      let g = Prng.create samples in
      let clamp v = max (-128) (min 127 v) in
      let input_codes = Array.map (fun c -> clamp (c + Prng.int g 13 - 6)) reference_codes in
      let alarm verification_codes =
        Digital_test.false_alarm small_config fir ~sample_rate:fs ~input_codes ~reference_codes
          ~tone_freqs:freqs ~verification_codes
      in
      Alcotest.(check bool) (Printf.sprintf "%d samples: same capture" samples) false
        (alarm input_codes);
      let spur = Digital_test.coherent_tone ~sample_rate:fs ~samples ~target:40e3 in
      let with_spur =
        Array.mapi
          (fun i c ->
            let phase = 2.0 *. Float.pi *. spur *. float_of_int i /. fs in
            clamp (c + int_of_float (Float.round (8.0 *. sin phase))))
          input_codes
      in
      Alcotest.(check bool) (Printf.sprintf "%d samples: extra tone" samples) true
        (alarm with_spur))
    [ 512; 301 ]

(* Each judged stream runs in one [digital_test.judge] span, a stream
   equal to the good one reuses the good stream's verdict, judged once,
   and every other member of a class of equivalent faults takes its
   representative's verdict: judge spans + shared verdicts + equivalent
   faults = faults + 1, and no fault stream is analysed into a
   spectrum. *)
let test_judge_attribution () =
  Obs.enable ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let det, _, _, _ = run_small_coverage ~tones:2 ~samples:256 in
      let trace = Result.get_ok (Trace.parse (Obs.jsonl ())) in
      let counter name =
        int_of_float (Option.value ~default:0.0 (List.assoc_opt name trace.Trace.counters))
      in
      let judged =
        List.length
          (List.filter (fun sp -> sp.Trace.sp_name = "digital_test.judge") trace.Trace.spans)
      in
      let shared = counter "digital_test.shared_verdicts" in
      let equivalent = counter "fault_sim.equivalent" in
      Alcotest.(check int) "judged + shared + equivalent = faults + 1"
        (det.Digital_test.total + 1)
        (judged + shared + equivalent);
      Alcotest.(check bool) "some verdicts shared" true (shared > 0);
      Alcotest.(check bool) "some faults answered by their class" true (equivalent > 0);
      Alcotest.(check int) "only the golden capture is analysed" 1
        (counter "spectrum.captures"))

(* A class of equivalent faults is judged once, but the heartbeat's last
   reading credits every member: it counts every fault and every
   detection. *)
let test_heartbeat_counts_members () =
  let cell name = Msoc_obs.Progress.value (Msoc_obs.Progress.cell name) in
  let det =
    Msoc_obs.Progress.with_ticker ~render:(fun ~elapsed_s:_ -> "") (fun () ->
        let det, _, _, _ = run_small_coverage ~tones:2 ~samples:256 in
        det)
  in
  let total = float_of_int det.Digital_test.total in
  Alcotest.(check (float 0.0)) "judged_total" total (cell "coverage.judged_total");
  Alcotest.(check (float 0.0)) "judged" total (cell "coverage.judged");
  Alcotest.(check (float 0.0)) "detected" (float_of_int det.Digital_test.detected)
    (cell "coverage.detected")

(* Gate-input equivalence on the paper's filters: the class count over
   the collapsed faults the verb reports. *)
let test_fir_fault_classes () =
  List.iter
    (fun (taps, input_bits, faults, classes) ->
      let fir =
        Digital_test.build { Digital_test.default_config with Digital_test.taps; input_bits }
      in
      let collapsed = Digital_test.collapsed_faults fir in
      let rep =
        Msoc_netlist.Fault.classes fir.Msoc_netlist.Fir_netlist.circuit
          ~output:(Msoc_netlist.Fir_netlist.output_bus fir) collapsed
      in
      let label = Printf.sprintf "%d taps, %d-bit input" taps input_bits in
      Alcotest.(check int) (label ^ ": faults") faults (Array.length collapsed);
      Alcotest.(check int) (label ^ ": classes") classes
        (Array.fold_left ( + ) 0 (Array.mapi (fun i k -> if k = i then 1 else 0) rep)))
    [ (13, 12, 6448, 5278); (9, 10, 3858, 3158) ]

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "msoc_synth"
    [ ( "spec",
        [ Alcotest.test_case "table 1 sets" `Quick test_table1_parameter_sets;
          Alcotest.test_case "composability" `Quick test_composable_partition;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "receiver specs" `Quick test_receiver_specs_complete;
          Alcotest.test_case "sources" `Quick test_spec_sources ] );
      ( "accuracy",
        [ Alcotest.test_case "totals" `Quick test_budget_totals ] );
      ( "compose",
        [ Alcotest.test_case "path gain" `Quick test_path_gain_composition;
          Alcotest.test_case "friis" `Quick test_friis_formula;
          Alcotest.test_case "friis ordering" `Quick test_friis_first_stage_dominates;
          Alcotest.test_case "cascade NF" `Quick test_cascade_nf;
          Alcotest.test_case "dynamic range" `Quick test_dynamic_range;
          Alcotest.test_case "boundary checks" `Quick test_boundary_checks_cover_extremes;
          Alcotest.test_case "saturation analysis" `Quick test_saturation_analysis ] );
      ( "propagate",
        [ Alcotest.test_case "Fig4: adaptive IIP3" `Quick test_adaptive_beats_nominal_iip3;
          Alcotest.test_case "adaptive always better" `Quick
            test_adaptive_beats_nominal_everywhere;
          Alcotest.test_case "Fig4: trial errors within budget" `Quick
            test_fig4_trial_within_budget;
          Alcotest.test_case "cutoff error sources" `Quick test_cutoff_error_sources;
          Alcotest.test_case "receiver measurement set" `Quick
            test_all_for_path_unique_specs ] );
      ( "coverage",
        Alcotest.test_case "zero error" `Quick test_zero_error_zero_losses
        :: Alcotest.test_case "Table2 threshold rows" `Quick test_threshold_rows_structure
        :: Alcotest.test_case "MC matches analytic" `Quick test_monte_carlo_matches_analytic
        :: Alcotest.test_case "two-sided" `Quick test_two_sided_bound
        :: Alcotest.test_case "Fig5 tradeoff monotone" `Quick test_tradeoff_monotone
        :: qcheck [ prop_losses_are_probabilities; prop_analytic_matches_reference ] );
      ( "plan",
        [ Alcotest.test_case "structure" `Quick test_plan_structure;
          Alcotest.test_case "table1" `Quick test_plan_table1;
          Alcotest.test_case "dft flags" `Quick test_plan_dft_flags;
          Alcotest.test_case "nominal strategy worse" `Quick test_plan_nominal_strategy_worse ] );
      ( "schedule",
        [ Alcotest.test_case "complete and ordered" `Quick test_schedule_complete_and_ordered;
          Alcotest.test_case "composites first" `Quick test_schedule_composites_first;
          Alcotest.test_case "time estimate" `Quick test_schedule_time_estimate ] );
      ( "dft",
        [ Alcotest.test_case "access shrinks budget" `Quick test_dft_access_removes_contributions;
          Alcotest.test_case "sorted recommendations" `Quick test_dft_recommendations_sorted;
          Alcotest.test_case "lax limits: none" `Quick test_dft_lax_limits_empty ] );
      ( "measure",
        [ Alcotest.test_case "path gain" `Quick test_measure_path_gain;
          Alcotest.test_case "LO frequency" `Quick test_measure_lo_frequency;
          Alcotest.test_case "validations within budget" `Slow
            test_measure_validations_within_budget;
          Alcotest.test_case "adaptive beats nominal P1dB" `Slow
            test_measure_adaptive_beats_nominal_p1db;
          Alcotest.test_case "validate_part identical at pool sizes 1/2/4" `Quick
            test_measure_validate_pool_sizes ] );
      ( "digital",
        [ Alcotest.test_case "build" `Quick test_digital_build;
          Alcotest.test_case "ideal codes" `Quick test_ideal_codes_range;
          Alcotest.test_case "two-tone >= one-tone" `Quick test_two_tone_beats_one_tone;
          Alcotest.test_case "full config: 2-tone strictly better" `Slow
            test_full_config_two_tone_strictly_better;
          Alcotest.test_case "detection consistency" `Quick test_detection_consistency;
          Alcotest.test_case "escapes are small" `Quick test_undetected_have_small_effect;
          Alcotest.test_case "second pass monotone" `Quick test_second_pass_increases_coverage;
          Alcotest.test_case "noise lowers coverage" `Quick test_noisy_input_lowers_coverage;
          Alcotest.test_case "false alarm" `Quick test_false_alarm;
          Alcotest.test_case "judge attribution" `Quick test_judge_attribution;
          Alcotest.test_case "heartbeat counts class members" `Quick
            test_heartbeat_counts_members;
          Alcotest.test_case "fault classes on the paper's filters" `Quick
            test_fir_fault_classes ] ) ]
