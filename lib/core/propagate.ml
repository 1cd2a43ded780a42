module Param = Msoc_analog.Param
module Path = Msoc_analog.Path
module Stage = Msoc_analog.Stage
module Lpf = Msoc_analog.Lpf
module Local_osc = Msoc_analog.Local_osc
module Context = Msoc_analog.Context
module Attr = Msoc_signal.Attr

type strategy = Nominal_gains | Adaptive

type t = {
  spec : Spec.t;
  strategy : strategy;
  stimulus : Attr.t;
  procedure : string;
  formula : string;
  budget : Accuracy.t;
  prerequisites : string list;
}

let err t = Accuracy.worst_case t.budget

let strategy_name = function Nominal_gains -> "nominal-gains" | Adaptive -> "adaptive"

module Obs = Msoc_obs.Obs

(* Keys derive from the stage id, not the block class, so two stages of
   the same class (e.g. two amplifiers) never collide in the audit trail. *)
let parameter_name (m : t) = m.spec.Spec.stage ^ " " ^ Spec.kind_name m.spec.Spec.kind

(* One span per translated parameter, tagged with the achieved worst-case
   accuracy; the tag closure only runs when telemetry is recording. *)
let traced name build =
  let timer = Obs.start_span name in
  match build () with
  | m ->
    Obs.stop_span timer
      ~args:(fun () ->
        [ ("accuracy", Printf.sprintf "%.3g" (err m));
          ("strategy", strategy_name m.strategy) ]);
    m
  | exception e ->
    Obs.stop_span timer;
    raise e

let standard_test_level_dbm = -35.0

(* The stage's spec of [kind]: a stage (with its LO) has at most one. *)
let spec_for stage kind =
  match List.find_opt (fun s -> s.Spec.kind = kind) (Spec.of_stage stage) with
  | Some s -> s
  | None -> invalid_arg "Propagate: no such spec for this path"

(* ---- stage lookups ---- *)

let amp_stage path = Path.first_stage path (function Stage.Amp _ -> true | _ -> false)
let lpf_stage path = Path.first_stage path (function Stage.Lpf _ -> true | _ -> false)

let require what = function
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Propagate: path has no %s stage" what)

let lo_of path =
  match (require "mixer" (Path.first_mixer path)).Stage.block with
  | Stage.Mix { lo_id; lo; _ } -> (lo_id, lo)
  | _ -> invalid_arg "Propagate: mixer stage carries no LO"

let rf_two_tone (path : Path.t) =
  let f_lo = match Path.lo_freq_hz path with Some f -> f | None -> 0.0 in
  Attr.two_tone
    ~noise_dbm:(Context.thermal_noise_dbm path.Path.ctx)
    ~f1_hz:(f_lo +. 90e3) ~f2_hz:(f_lo +. 110e3) ~power_dbm:standard_test_level_dbm ()

let rf_single_tone (path : Path.t) ~offset_hz ~power_dbm =
  let f_lo = match Path.lo_freq_hz path with Some f -> f | None -> 0.0 in
  Attr.single_tone
    ~noise_dbm:(Context.thermal_noise_dbm path.Path.ctx)
    ~freq_hz:(f_lo +. offset_hz) ~power_dbm ()

(* The de-embedding term of one gain stage, e.g. [G_mixer]. *)
let gain_name ((s : Stage.t), _) = "G_" ^ String.lowercase_ascii s.Stage.id

let nominal_contributions ?(suffix = " (nominal assumed)") gains =
  List.map
    (fun ((_, (g : Param.t)) as gain) ->
      { Accuracy.source = gain_name gain ^ suffix; err = g.Param.tol })
    gains

let mixer_iip3 (path : Path.t) ~strategy =
  traced "propagate.mixer_iip3" @@ fun () ->
  let mx = require "mixer" (Path.first_mixer path) in
  let budget, formula, prerequisites =
    match strategy with
    | Nominal_gains ->
      let from = Path.gains_from path ~stage:mx.Stage.id in
      ( Accuracy.create (nominal_contributions from),
        "IIP3 = (3X - Y)/2 - " ^ String.concat " - " (List.map gain_name from),
        [] )
    | Adaptive ->
      let before = Path.gains_before path ~stage:mx.Stage.id in
      ( Accuracy.create (nominal_contributions before),
        "IIP3 = (3X - Y)/2 - G_path"
        ^ String.concat "" (List.map (fun g -> " + " ^ gain_name g) before),
        [ "path gain" ] )
  in
  { spec = spec_for mx Spec.Iip3;
    strategy;
    stimulus = rf_two_tone path;
    procedure =
      "Apply the standard two-tone stimulus at the primary input; read the \
       fundamental power X and the IM3 product power Y at the digital filter \
       output; de-embed to the mixer input.";
    formula;
    budget;
    prerequisites }

let figure4_seed = 31415

(* Fig. 4's error model, one Monte-Carlo trial: sample a part within its
   tolerances, de-embed the mixer IIP3 from the cascade observable with
   the chosen strategy, and return the estimate minus the sampled truth.
   The draws come in a fixed order (amp, mixer and LPF gains, then the
   true IIP3), so a trial is a pure function of its generator stream. *)
let mixer_iip3_trial (path : Path.t) ~strategy =
  let param stage name = Path.param path ~stage ~name in
  let iip3 = param "Mixer" "iip3_dbm" in
  let amp_gain = param "Amp" "gain_db" in
  let mixer_gain = param "Mixer" "gain_db" in
  let lpf_gain = param "LPF" "gain_db" in
  fun g _ ->
    let actual_amp = Param.sample amp_gain g in
    let actual_mixer = Param.sample mixer_gain g in
    let actual_lpf = Param.sample lpf_gain g in
    let true_iip3 = Param.sample iip3 g in
    (* observable at the primary output, input-referred to the primary
       input *)
    let observable = true_iip3 +. actual_mixer +. actual_lpf in
    let estimate =
      match strategy with
      | Nominal_gains -> observable -. mixer_gain.Param.nominal -. lpf_gain.Param.nominal
      | Adaptive ->
        (* path gain measured exactly; G_amp assumed nominal — only the
           amp's tolerance survives in the error *)
        let path_gain = actual_amp +. actual_mixer +. actual_lpf in
        observable -. path_gain +. amp_gain.Param.nominal
    in
    estimate -. true_iip3

let amp_iip3 (path : Path.t) ~strategy =
  traced "propagate.amp_iip3" @@ fun () ->
  let amp = require "amplifier" (amp_stage path) in
  let masking = { Accuracy.source = "mixer IM3 masking"; err = 1.0 } in
  let mixer_prereq =
    match Path.first_mixer path with
    | Some mx -> [ String.lowercase_ascii mx.Stage.id ^ " IIP3" ]
    | None -> []
  in
  let budget, formula, prerequisites =
    match strategy with
    | Nominal_gains ->
      ( Accuracy.create (nominal_contributions (Path.gain_stages path) @ [ masking ]),
        "IIP3_amp = (3X - Y)/2 - G_path(nominal)",
        [] )
    | Adaptive ->
      ( Accuracy.create [ masking ],
        "IIP3_amp = (3X - Y)/2 - G_path(measured)",
        "path gain" :: mixer_prereq )
  in
  { spec = spec_for amp Spec.Iip3;
    strategy;
    stimulus = rf_two_tone path;
    procedure =
      "Two-tone stimulus raised until the amp (not the mixer) dominates the \
       IM3 products; read X and Y at the output and refer to the primary \
       input.";
    formula;
    budget;
    prerequisites }

let mixer_p1db (path : Path.t) ~strategy =
  traced "propagate.mixer_p1db" @@ fun () ->
  let mx = require "mixer" (Path.first_mixer path) in
  let before = Path.gains_before path ~stage:mx.Stage.id in
  let p1db = Path.param path ~stage:mx.Stage.id ~name:"p1db_dbm" in
  let budget, formula, prerequisites =
    match strategy with
    | Nominal_gains ->
      ( Accuracy.create
          (nominal_contributions before
          @ nominal_contributions ~suffix:" (compression ref, nominal)"
              (Path.gains_from path ~stage:mx.Stage.id)),
        "P1dB = P_in(output 1 dB below nominal-gain line) + G_amp(nominal)",
        [] )
    | Adaptive ->
      ( Accuracy.create (nominal_contributions before),
        "P1dB = P_in(gain drop of 1 dB vs measured small-signal path gain) + G_amp",
        [ "path gain" ] )
  in
  { spec = spec_for mx Spec.P1db;
    strategy;
    stimulus =
      rf_single_tone path ~offset_hz:100e3
        ~power_dbm:(p1db.Param.nominal -. Path.nominal_gain_db before);
    procedure =
      "Sweep the single-tone input level upward; find the input power at \
       which the output fundamental sits 1 dB below the extrapolated linear \
       line; refer to the mixer input.";
    formula;
    budget;
    prerequisites }

let lpf_cutoff_slope_db_per_hz (path : Path.t) =
  let lpf = require "LPF" (lpf_stage path) in
  let params = match lpf.Stage.block with Stage.Lpf p -> p | _ -> assert false in
  let values = Lpf.nominal_values params in
  let fc = values.Lpf.cutoff_hz in
  let delta = fc *. 1e-3 in
  let g_hi = Lpf.magnitude_db values path.Path.ctx ~freq:(fc +. delta) in
  let g_lo = Lpf.magnitude_db values path.Path.ctx ~freq:(fc -. delta) in
  (g_hi -. g_lo) /. (2.0 *. delta)

let lo_freq_error (path : Path.t) =
  traced "propagate.lo_freq_error" @@ fun () ->
  { spec = spec_for (require "mixer" (Path.first_mixer path)) Spec.Freq_error;
    strategy = Adaptive;
    stimulus = rf_single_tone path ~offset_hz:100e3 ~power_dbm:standard_test_level_dbm;
    procedure =
      "Locate the LO leakage spur in the output spectrum (it aliases to a \
       known bin); its frequency offset from nominal is the LO frequency \
       error.";
    formula = "f_err = f(LO leakage spur) - f_LO(nominal)";
    budget =
      Accuracy.create ~instrument_err:30.0 (* ~ an FFT bin at the bench capture length *) [];
    prerequisites = [] }

let lpf_cutoff (path : Path.t) ~strategy =
  traced "propagate.lpf_cutoff" @@ fun () ->
  let lpf = require "LPF" (lpf_stage path) in
  let lo_id, lo = lo_of path in
  let slope = Float.abs (lpf_cutoff_slope_db_per_hz path) in
  let gain_tol = (Path.param path ~stage:lpf.Stage.id ~name:"gain_db").Param.tol in
  let lo_tol = lo.Local_osc.freq_error_hz.Param.tol in
  let budget, formula, prerequisites =
    match strategy with
    | Nominal_gains ->
      ( Accuracy.create ~instrument_err:2000.0
          [ { Accuracy.source = "G_passband tol via roll-off slope"; err = gain_tol /. slope };
            { Accuracy.source = lo_id ^ " frequency error (nominal assumed)"; err = lo_tol } ],
        "f_c = f_RF(output at nominal gain - 3 dB) - f_LO(nominal)",
        [] )
    | Adaptive ->
      ( Accuracy.create ~instrument_err:2000.0 [],
        "f_c = f_RF(gain 3 dB below this part's own pass band) - f_LO(measured)",
        [ "path gain"; lo_id ^ " frequency error" ] )
  in
  { spec = spec_for lpf Spec.Cutoff_freq;
    strategy;
    stimulus =
      rf_single_tone path
        ~offset_hz:(Path.param path ~stage:lpf.Stage.id ~name:"cutoff_hz").Param.nominal
        ~power_dbm:standard_test_level_dbm;
    procedure =
      "Sweep the RF stimulus so the IF crosses the corner; find the -3 dB \
       frequency relative to the pass-band reference and subtract the LO \
       frequency.";
    formula;
    budget;
    prerequisites }

let mixer_lo_isolation (path : Path.t) ~strategy =
  traced "propagate.mixer_lo_isolation" @@ fun () ->
  let mx = require "mixer" (Path.first_mixer path) in
  (* gains strictly after the mixer refer the spur reading back to it *)
  let after =
    match Path.gains_from path ~stage:mx.Stage.id with [] -> [] | _ :: rest -> rest
  in
  let refer_names = String.concat " - " (List.map gain_name after) in
  let drive_assumed = { Accuracy.source = "LO drive level assumed"; err = 0.5 } in
  let budget, formula, prerequisites =
    match strategy with
    | Nominal_gains ->
      ( Accuracy.create
          (nominal_contributions ~suffix:" at the folded LO bin (nominal assumed)" after
          @ [ drive_assumed ]),
        Printf.sprintf "isolation = P_LO(drive) - (P(LO spur at output) - %s)" refer_names,
        [] )
    | Adaptive ->
      ( Accuracy.create [ drive_assumed ],
        Printf.sprintf "isolation = P_LO(drive) - (P(LO spur) - %s(from measured path gain))"
          refer_names,
        [ "path gain" ] )
  in
  { spec = spec_for mx Spec.Lo_isolation;
    strategy;
    stimulus = Attr.silence ~noise_dbm:(Context.thermal_noise_dbm path.Path.ctx) ();
    procedure =
      "With no stimulus, read the LO leakage power at its aliased output \
       bin and refer it back through the LPF to the mixer output.";
    formula;
    budget;
    prerequisites }

let adc_inl (path : Path.t) =
  traced "propagate.adc_inl" @@ fun () ->
  let digitizer = Path.digitizer path in
  { spec = spec_for digitizer Spec.Inl;
    strategy = Adaptive;
    stimulus = rf_single_tone path ~offset_hz:100e3 ~power_dbm:(standard_test_level_dbm +. 3.0);
    procedure =
      "Drive a near-full-scale tone; the INL bow appears as HD2/HD3 power \
       relative to the carrier; invert the spur law to bound INL.";
    formula = "INL <= 2^bits * 10^((HD_dBc - 6) / 20)";
    budget =
      Accuracy.create ~instrument_err:0.2
        [ { Accuracy.source = "analog HD3 masking (amp/mixer)"; err = 0.4 } ];
    prerequisites = [ "path gain" ] }

let dc_offset_composite (path : Path.t) =
  traced "propagate.dc_offset_composite" @@ fun () ->
  let digitizer = Path.digitizer path in
  let leakage =
    match amp_stage path with
    | Some amp ->
      let offset = Path.param path ~stage:amp.Stage.id ~name:"dc_offset_v" in
      [ { Accuracy.source =
            String.lowercase_ascii amp.Stage.id ^ " offset leakage into DC";
          err = offset.Param.tol } ]
    | None -> []
  in
  { spec = spec_for digitizer Spec.Offset_error;
    strategy = Nominal_gains;
    stimulus = Attr.silence ~noise_dbm:(Context.thermal_noise_dbm path.Path.ctx) ();
    procedure =
      "With no stimulus, read the DC bin at the filter output: it observes \
       amp offset (mixed to DC by LO leakage) plus ADC offset as one \
       composite value.";
    formula = "offset_composite = DC(out); individual offsets not separable";
    budget = Accuracy.create ~instrument_err:1e-3 leakage;
    prerequisites = [] }

(* The measurement list adapts to the topology: each builder is emitted only
   when its stage exists, in the fixed historical order. *)
let all_for_path path ~strategy =
  let has_amp = amp_stage path <> None in
  let has_mixer = Path.first_mixer path <> None in
  let has_lpf = lpf_stage path <> None in
  let nyquist_adc =
    match (Path.digitizer path).Stage.block with
    | Stage.Adc _ -> true
    | Stage.Amp _ | Stage.Mix _ | Stage.Lpf _ | Stage.Sd_adc _ -> false
  in
  List.concat
    [ (if has_mixer then [ mixer_iip3 path ~strategy ] else []);
      (if has_amp then [ amp_iip3 path ~strategy ] else []);
      (if has_mixer then [ mixer_p1db path ~strategy ] else []);
      (if has_lpf && has_mixer then [ lpf_cutoff path ~strategy ] else []);
      (if has_mixer then [ mixer_lo_isolation path ~strategy ] else []);
      (if has_mixer then [ lo_freq_error path ] else []);
      (if nyquist_adc then [ adc_inl path ] else []);
      [ dc_offset_composite path ] ]

let pp ppf t =
  Format.fprintf ppf "@[<v>%a [%s]@,  formula: %s@,  %a@,  prerequisites: %s@]" Spec.pp t.spec
    (strategy_name t.strategy) t.formula Accuracy.pp t.budget
    (match t.prerequisites with [] -> "(none)" | l -> String.concat ", " l)
