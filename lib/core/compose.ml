module Units = Msoc_util.Units
module Param = Msoc_analog.Param
module Path = Msoc_analog.Path
module Stage = Msoc_analog.Stage
module Amplifier = Msoc_analog.Amplifier
module Mixer = Msoc_analog.Mixer
module Local_osc = Msoc_analog.Local_osc
module Adc = Msoc_analog.Adc
module Sigma_delta = Msoc_analog.Sigma_delta
module Context = Msoc_analog.Context

type t = {
  name : string;
  covers : (Spec.block * Spec.kind) list;
  nominal : float;
  tolerance : float;
  accuracy : Accuracy.t;
  unit_label : string;
}

let path_gain (path : Path.t) =
  let interval = Path.path_gain_interval_db path in
  { name = "path gain";
    covers =
      List.map
        (fun (s, _) ->
          let c = Spec.class_of_stage s in
          (c, Spec.gain_kind c))
        (Path.gain_stages path);
    nominal = Msoc_util.Interval.mid interval;
    tolerance = Msoc_util.Interval.err interval;
    accuracy = Accuracy.create [];
    unit_label = "dB" }

let friis_nf_db ~nf_db ~gain_db =
  assert (Array.length nf_db = Array.length gain_db + 1);
  let factor = ref (Units.power_ratio_of_db nf_db.(0)) in
  let cumulative_gain = ref 1.0 in
  for i = 1 to Array.length nf_db - 1 do
    cumulative_gain := !cumulative_gain *. Units.power_ratio_of_db gain_db.(i - 1);
    factor := !factor +. ((Units.power_ratio_of_db nf_db.(i) -. 1.0) /. !cumulative_gain)
  done;
  Units.db_of_power_ratio !factor

(* Every stage contributes noise; every non-digitizer contributes the gain
   in front of the next stage — so |nf| = |gain| + 1 holds for any path
   with a single trailing digitizer. *)
let cascade_params (path : Path.t) =
  let nf p = p.Param.nominal and tol p = p.Param.tol in
  let nfs = List.filter_map Stage.nf_param path.Path.stages in
  let gains = List.map snd (Path.gain_stages path) in
  (Array.of_list nfs, Array.of_list gains, nf, tol)

let noise_figure (path : Path.t) =
  let nfs, gains, nominal_of, tol_of = cascade_params path in
  let nominal =
    friis_nf_db ~nf_db:(Array.map nominal_of nfs) ~gain_db:(Array.map nominal_of gains)
  in
  (* Friis NF is increasing in each stage NF and decreasing in each gain, so
     the two extreme corners bound the composite. *)
  let hi =
    friis_nf_db
      ~nf_db:(Array.map (fun p -> nominal_of p +. tol_of p) nfs)
      ~gain_db:(Array.map (fun p -> nominal_of p -. tol_of p) gains)
  in
  let lo =
    friis_nf_db
      ~nf_db:(Array.map (fun p -> nominal_of p -. tol_of p) nfs)
      ~gain_db:(Array.map (fun p -> nominal_of p +. tol_of p) gains)
  in
  { name = "cascade noise figure";
    covers =
      List.filter_map
        (fun s ->
          let c = Spec.class_of_stage s in
          if List.mem Spec.Noise_figure (Spec.table1 c) then Some (c, Spec.Noise_figure)
          else None)
        path.Path.stages;
    nominal;
    tolerance = Float.max (hi -. nominal) (nominal -. lo);
    accuracy = Accuracy.create ~instrument_err:0.5 [];
    unit_label = "dB" }

let noise_floor_input_dbm (path : Path.t) =
  let nfs, gains, nominal_of, _ = cascade_params path in
  let nf =
    friis_nf_db ~nf_db:(Array.map nominal_of nfs) ~gain_db:(Array.map nominal_of gains)
  in
  Context.thermal_noise_dbm path.Path.ctx +. nf

let dynamic_range (path : Path.t) =
  (* Ceiling: the mixer compression referred to the primary input; floor:
     the cascade noise floor referred to the primary input. *)
  let ceiling, tolerance =
    match Path.first_mixer path with
    | Some mx ->
      let p1db = Path.param path ~stage:mx.Stage.id ~name:"p1db_dbm" in
      let before = Path.gains_before path ~stage:mx.Stage.id in
      let pre_tol = List.fold_left (fun acc (_, (p : Param.t)) -> acc +. p.Param.tol) 0.0 before in
      ( p1db.Param.nominal -. Path.nominal_gain_db before,
        p1db.Param.tol +. pre_tol +. 1.0 (* NF corner contribution, conservative *) )
    | None ->
      (* no compressing mixer: the digitizer full scale is the ceiling *)
      let fs =
        match (Path.digitizer path).Stage.block with
        | Stage.Adc { adc; _ } -> adc.Adc.full_scale_v
        | Stage.Sd_adc { sd; _ } -> sd.Sigma_delta.full_scale_v
        | _ -> 1.0
      in
      (Units.dbm_of_vpeak fs -. Path.nominal_path_gain_db path, 1.0)
  in
  let floor = noise_floor_input_dbm path in
  { name = "dynamic range";
    covers =
      List.filter_map
        (fun s ->
          let c = Spec.class_of_stage s in
          if List.mem Spec.Dynamic_range (Spec.table1 c) then Some (c, Spec.Dynamic_range)
          else None)
        path.Path.stages;
    nominal = ceiling -. floor;
    tolerance;
    accuracy = Accuracy.create ~instrument_err:0.5 [];
    unit_label = "dB" }

type check_kind = Saturation | Signal_loss | Mid_gain

type boundary_check = {
  kind : check_kind;
  description : string;
  stimulus_dbm : float;
  min_snr_db : float;
}

(* Per-stage input-referred compression ceiling, None when the stage never
   limits (LPF). *)
let stage_ceiling_dbm (s : Stage.t) ~preceding_gain_db =
  match s.Stage.block with
  | Stage.Amp p ->
    (* a cubic's hard saturation sits ~3.6 dB above its 1 dB compression;
       with no explicit P1dB, IIP3 - 9.6 locates compression *)
    Some (p.Amplifier.iip3_dbm.Param.nominal -. 9.6 -. preceding_gain_db)
  | Stage.Mix { mixer; _ } -> Some (mixer.Mixer.p1db_dbm.Param.nominal -. preceding_gain_db)
  | Stage.Lpf _ -> None
  | Stage.Adc { adc; _ } ->
    Some (Units.dbm_of_vpeak adc.Adc.full_scale_v -. preceding_gain_db)
  | Stage.Sd_adc { sd; _ } ->
    (* 2nd-order loops overload near 0.85 of the feedback full scale *)
    Some (Units.dbm_of_vpeak (0.85 *. sd.Sigma_delta.full_scale_v) -. preceding_gain_db)

(* Input-referred compression ceiling: the first block whose limit is hit as
   the stimulus rises.  With the default receiver the ADC full scale binds,
   which is why an out-of-tolerance amp gain masked in the composite shows
   up as clipping at the high-amplitude check. *)
let ceiling_input_dbm (path : Path.t) =
  let ceilings =
    let rec go acc cum = function
      | [] -> List.rev acc
      | s :: rest ->
        let acc =
          match stage_ceiling_dbm s ~preceding_gain_db:cum with
          | Some c -> c :: acc
          | None -> acc
        in
        let cum =
          match Stage.gain_param s with
          | Some g ->
            (* 0.0 +. g = g: the first stage's ceiling is bitwise the
               un-referred one *)
            if cum = 0.0 then g.Param.nominal else cum +. g.Param.nominal
          | None -> cum
        in
        go acc cum rest
    in
    go [] 0.0 path.Path.stages
  in
  match ceilings with
  | [] -> invalid_arg "Compose.ceiling_input_dbm: no limiting stage"
  | c :: rest -> List.fold_left Float.min c rest

(* Input-referred system noise floor: cascade thermal noise or the
   digitizer quantization floor, whichever dominates. *)
let floor_input_dbm (path : Path.t) =
  let thermal = noise_floor_input_dbm path in
  let quant =
    match (Path.digitizer path).Stage.block with
    | Stage.Adc { adc; _ } ->
      Units.dbm_of_vpeak adc.Adc.full_scale_v
      -. Adc.ideal_snr_db adc -. Path.nominal_path_gain_db path
    | Stage.Sd_adc { sd; _ } ->
      let ctx = path.Path.ctx in
      let osr =
        Float.max 2.0 (ctx.Context.sim_rate_hz /. (2.0 *. ctx.Context.analysis_bw_hz))
      in
      Units.dbm_of_vpeak sd.Sigma_delta.full_scale_v
      -. Sigma_delta.theoretical_sqnr_db ~osr -. Path.nominal_path_gain_db path
    | Stage.Amp _ | Stage.Mix _ | Stage.Lpf _ -> neg_infinity
  in
  Float.max thermal quant

let boundary_checks (path : Path.t) ~test_level_dbm =
  [ { kind = Saturation;
      description = "max-amplitude saturation check (Fig. 3, high side)";
      stimulus_dbm = ceiling_input_dbm path -. 3.0;
      min_snr_db = 15.0 };
    { kind = Signal_loss;
      description = "min-amplitude signal-loss check (Fig. 3, low side)";
      stimulus_dbm = floor_input_dbm path +. 12.0;
      min_snr_db = 6.0 };
    { kind = Mid_gain;
      description = "mid-range composite gain measurement level";
      stimulus_dbm = test_level_dbm;
      min_snr_db = 40.0 } ]

type saturation_report = {
  block : string;
  drive_dbm : float;
  limit_dbm : float;
  headroom_db : float;
}

(* The hard-saturation input level of one stage (None for the LPF, which
   only accumulates gain in front of later limits). *)
let stage_limit_dbm (ctx : Context.t) (s : Stage.t) =
  match s.Stage.block with
  | Stage.Amp p ->
    let inst = Amplifier.instance ctx (Amplifier.nominal_values p) in
    Some (Units.dbm_of_vpeak (Amplifier.saturation_input_v inst))
  | Stage.Mix { lo; mixer; _ } ->
    let inst =
      Mixer.instance ctx (Mixer.nominal_values mixer) ~lo_drive_dbm:lo.Local_osc.drive_dbm
    in
    Some (Units.dbm_of_vpeak (Mixer.saturation_input_v inst))
  | Stage.Lpf _ -> None
  | Stage.Adc { adc; _ } -> Some (Units.dbm_of_vpeak adc.Adc.full_scale_v)
  | Stage.Sd_adc { sd; _ } ->
    Some (Units.dbm_of_vpeak (0.85 *. sd.Sigma_delta.full_scale_v))

let saturation_analysis (path : Path.t) ~input_dbm =
  let ctx = path.Path.ctx in
  let report s drive limit =
    { block = String.lowercase_ascii s.Stage.id;
      drive_dbm = drive;
      limit_dbm = limit;
      headroom_db = limit -. drive }
  in
  (* worst-case (high-corner) gain accumulates in front of each stage *)
  let rec go acc gain_hi = function
    | [] -> List.rev acc
    | s :: rest ->
      let drive = if gain_hi = 0.0 then input_dbm else input_dbm +. gain_hi in
      let acc =
        match stage_limit_dbm ctx s with
        | Some limit -> report s drive limit :: acc
        | None -> acc
      in
      let gain_hi =
        match Stage.gain_param s with
        | Some g ->
          if gain_hi = 0.0 then g.Param.nominal +. g.Param.tol
          else (gain_hi +. g.Param.nominal) +. g.Param.tol
        | None -> gain_hi
      in
      go acc gain_hi rest
  in
  go [] 0.0 path.Path.stages
