module I = Msoc_util.Interval
module Units = Msoc_util.Units
module Prng = Msoc_util.Prng
module Attr = Msoc_signal.Attr

type inl_shape = S_curve | Bow

type params = {
  bits : int;
  full_scale_v : float;
  offset_error_v : Param.t;
  inl_lsb : Param.t;
  inl_shape : inl_shape;
  dnl_lsb : Param.t;
  nf_db : Param.t;
}

type values = {
  offset_error_v : float;
  inl_lsb : float;
  dnl_lsb : float;
  nf_db : float;
}

type instance = {
  params : params;
  offset_v : float;
  inl_lsb : float;
  dnl_table : float array; (* per-code additive error, volts *)
  noise_sigma_v : float;
}

let default_params : params =
  { bits = 14;
    full_scale_v = 1.0;
    offset_error_v = Param.make ~nominal:0.0 ~tol:2e-3;
    inl_lsb = Param.make ~nominal:1.5 ~tol:0.75;
    inl_shape = S_curve;
    dnl_lsb = Param.make ~nominal:0.4 ~tol:0.2;
    nf_db = Param.make ~nominal:25.0 ~tol:2.0 }

let nominal_values (p : params) : values =
  { offset_error_v = p.offset_error_v.Param.nominal;
    inl_lsb = p.inl_lsb.Param.nominal;
    dnl_lsb = p.dnl_lsb.Param.nominal;
    nf_db = p.nf_db.Param.nominal }

let sample_values (p : params) g : values =
  { offset_error_v = Param.sample p.offset_error_v g;
    inl_lsb = Param.sample p.inl_lsb g;
    dnl_lsb = Param.sample p.dnl_lsb g;
    nf_db = Param.sample p.nf_db g }

let[@inline] lsb_volts p = 2.0 *. p.full_scale_v /. float_of_int (1 lsl p.bits)
let code_min p = -(1 lsl (p.bits - 1))
let code_max p = (1 lsl (p.bits - 1)) - 1

let noise_sigma ctx ~nf_db =
  let bandwidth = ctx.Context.sim_rate_hz /. 2.0 in
  let factor = Float.max 0.0 (Units.power_ratio_of_db nf_db -. 1.0) in
  sqrt (Context.boltzmann *. ctx.Context.temperature_k *. bandwidth *. factor
        *. Units.reference_ohms)

let instance params ctx (v : values) ~rng =
  let codes = 1 lsl params.bits in
  let lsb = lsb_volts params in
  let dnl_table = Array.make codes 0.0 in
  Prng.fill_gaussian rng ~scale:(v.dnl_lsb *. lsb) dnl_table;
  for i = 0 to codes - 1 do
    dnl_table.(i) <- dnl_table.(i) /. 3.0
  done;
  { params;
    offset_v = v.offset_error_v;
    inl_lsb = v.inl_lsb;
    dnl_table;
    noise_sigma_v = noise_sigma ctx ~nf_db:v.nf_db }

(* Two smooth INL profiles, both peaking at +/- INL * lsb: the odd
   S-curve puts its distortion at odd harmonics and intermods; the even
   mid-scale bow (the classic second-harmonic-dominant shape the
   code-density test characterises) at even ones. *)
let[@inline] inl_error inst x =
  let fs = inst.params.full_scale_v in
  let peak = inst.inl_lsb *. lsb_volts inst.params in
  match inst.params.inl_shape with
  | S_curve -> peak *. sin (Float.pi *. x /. (2.0 *. fs))
  | Bow -> peak *. sin (Float.pi *. (x +. fs) /. (2.0 *. fs))

(* One conversion with its thermal-noise sample given (inlined into the
   capture kernel's loop, so a capture boxes nothing). *)
let[@inline] quantize inst x ~noise =
  let p = inst.params in
  let perturbed = x +. inst.offset_v +. inl_error inst x +. noise in
  let code = int_of_float (Float.round (perturbed /. lsb_volts p)) in
  let clamped = max (code_min p) (min (code_max p) code) in
  let index = clamped - code_min p in
  let with_dnl = perturbed +. inst.dnl_table.(index) in
  let code = int_of_float (Float.round (with_dnl /. lsb_volts p)) in
  max (code_min p) (min (code_max p) code)

let kernel inst ~decimation ~rng ~samples =
  assert (decimation >= 1);
  let noise = Array.make (samples / decimation) 0.0 in
  Prng.fill_gaussian rng ~scale:inst.noise_sigma_v noise;
  fun input ->
    let codes = Array.make (Array.length noise) 0 in
    for k = 0 to Array.length noise - 1 do
      codes.(k) <- quantize inst input.(k * decimation) ~noise:noise.(k)
    done;
    codes

let ideal_snr_db p = (6.02 *. float_of_int p.bits) +. 1.76

(* ---- attribute-domain propagation ---- *)

let alias_fold_interval ~rate i =
  let fold f =
    let r = Float.rem (Float.abs f) rate in
    if r <= rate /. 2.0 then r else rate -. r
  in
  let lo = fold (I.mid i -. I.err i) and hi = fold (I.mid i +. I.err i) in
  I.make ~lo:(Float.min lo hi) ~hi:(Float.max lo hi)

let full_scale_power_dbm p =
  Units.dbm_of_vpeak p.full_scale_v

let transform (p : params) ~adc_rate_hz ctx (s : Attr.t) =
  let fold (tn : Attr.tone) =
    { tn with Attr.freq_hz = alias_fold_interval ~rate:adc_rate_hz tn.Attr.freq_hz }
  in
  let folded = Attr.map_tones s ~f:fold in
  (* Quantization noise relative to full scale, plus thermal noise. *)
  let quant_dbm = full_scale_power_dbm p -. ideal_snr_db p in
  let thermal_dbm =
    Units.dbm_of_watts
      (Context.boltzmann *. ctx.Context.temperature_k *. ctx.Context.analysis_bw_hz
      *. Float.max 1.0 (Units.power_ratio_of_db p.nf_db.Param.nominal))
  in
  let noise_w =
    Units.watts_of_dbm s.Attr.noise_dbm
    +. Units.watts_of_dbm quant_dbm
    +. Units.watts_of_dbm thermal_dbm
  in
  (* INL-induced even-order intermodulation of tone pairs: the mid-scale
     bow produces products at f1 +/- f2. *)
  let spur_dbc_of inl_lsb =
    20.0 *. Float.log10 (Float.max 1e-6 inl_lsb /. float_of_int (1 lsl p.bits)) +. 6.0
  in
  let folded_with_im2 =
    let rec pairs = function
      | [] -> []
      | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
    in
    List.fold_left
      (fun acc ((t1 : Attr.tone), (t2 : Attr.tone)) ->
        let stronger =
          if I.mid t1.Attr.power_dbm >= I.mid t2.Attr.power_dbm then t1.Attr.power_dbm
          else t2.Attr.power_dbm
        in
        let dbc = spur_dbc_of p.inl_lsb.Param.nominal in
        let add acc freq_i =
          Attr.add_spur acc Attr.Intermod3
            { Attr.freq_hz = alias_fold_interval ~rate:adc_rate_hz freq_i;
              power_dbm = I.of_err (I.mid stronger +. dbc) ~err:(I.err stronger +. 3.0);
              phase_rad = I.point 0.0 }
        in
        add (add acc (I.add t1.Attr.freq_hz t2.Attr.freq_hz))
          (I.sub t2.Attr.freq_hz t1.Attr.freq_hz))
      folded
      (pairs folded.Attr.tones)
  in
  let folded = match p.inl_shape with Bow -> folded_with_im2 | S_curve -> folded in
  (* INL-induced harmonics of the strongest intentional tone. *)
  let with_harmonics =
    match
      List.fold_left
        (fun best (tn : Attr.tone) ->
          match best with
          | None -> Some tn
          | Some b -> if I.mid tn.Attr.power_dbm > I.mid b.Attr.power_dbm then Some tn else best)
        None folded.Attr.tones
    with
    | None -> folded
    | Some carrier ->
      (* Empirical INL spur law: HDk ~ carrier + 20 log10(INL / 2^bits) + margin. *)
      let spur_dbc inl_lsb =
        20.0 *. Float.log10 (Float.max 1e-6 inl_lsb /. float_of_int (1 lsl p.bits)) +. 6.0
      in
      let inl_i = Param.interval p.inl_lsb in
      let dbc_i =
        I.make
          ~lo:(spur_dbc (Float.max 1e-6 I.(inl_i.lo)))
          ~hi:(spur_dbc (Float.max 1e-6 I.(inl_i.hi)))
      in
      List.fold_left
        (fun acc harmonic ->
          Attr.add_spur acc (Attr.Harmonic harmonic)
            { Attr.freq_hz =
                alias_fold_interval ~rate:adc_rate_hz
                  (I.scale (float_of_int harmonic) carrier.Attr.freq_hz);
              power_dbm = I.add carrier.Attr.power_dbm dbc_i;
              phase_rad = I.point 0.0 })
        folded [ 2; 3 ]
  in
  { with_harmonics with
    Attr.dc_volts = I.add with_harmonics.Attr.dc_volts (Param.interval p.offset_error_v);
    Attr.noise_dbm = Units.dbm_of_watts noise_w }
