module I = Msoc_util.Interval
module Units = Msoc_util.Units
module Prng = Msoc_util.Prng
module Attr = Msoc_signal.Attr

type params = {
  gain_db : Param.t;
  iip3_dbm : Param.t;
  lo_isolation_db : Param.t;
  nf_db : Param.t;
  p1db_dbm : Param.t;
}

type values = {
  gain_db : float;
  iip3_dbm : float;
  lo_isolation_db : float;
  nf_db : float;
  p1db_dbm : float;
}

type instance = {
  nonlin : Nonlin.t;
  leak_vpeak : float;
  noise_sigma_v : float;
}

let default_params : params =
  { gain_db = Param.make ~nominal:8.0 ~tol:1.0;
    iip3_dbm = Param.make ~nominal:14.0 ~tol:1.5;
    lo_isolation_db = Param.make ~nominal:40.0 ~tol:3.0;
    nf_db = Param.make ~nominal:10.0 ~tol:1.0;
    p1db_dbm = Param.make ~nominal:2.0 ~tol:1.0 }

let nominal_values (p : params) : values =
  { gain_db = p.gain_db.Param.nominal;
    iip3_dbm = p.iip3_dbm.Param.nominal;
    lo_isolation_db = p.lo_isolation_db.Param.nominal;
    nf_db = p.nf_db.Param.nominal;
    p1db_dbm = p.p1db_dbm.Param.nominal }

let sample_values (p : params) g : values =
  { gain_db = Param.sample p.gain_db g;
    iip3_dbm = Param.sample p.iip3_dbm g;
    lo_isolation_db = Param.sample p.lo_isolation_db g;
    nf_db = Param.sample p.nf_db g;
    p1db_dbm = Param.sample p.p1db_dbm g }

let noise_sigma ctx ~gain_db ~nf_db =
  let bandwidth = ctx.Context.sim_rate_hz /. 2.0 in
  let factor = Float.max 0.0 (Units.power_ratio_of_db nf_db -. 1.0) in
  let gain = Units.power_ratio_of_db gain_db in
  sqrt (Context.boltzmann *. ctx.Context.temperature_k *. bandwidth *. factor *. gain
        *. Units.reference_ohms)

let instance ctx (v : values) ~lo_drive_dbm =
  { nonlin =
      Nonlin.fit
        ~gain_lin:(Units.voltage_ratio_of_db v.gain_db)
        ~iip3_vpeak:(Units.vpeak_of_dbm v.iip3_dbm)
        ~p1db_vpeak:(Units.vpeak_of_dbm v.p1db_dbm)
        ();
    leak_vpeak = Units.vpeak_of_dbm (lo_drive_dbm -. v.lo_isolation_db);
    noise_sigma_v = noise_sigma ctx ~gain_db:v.gain_db ~nf_db:v.nf_db }

let kernel inst ~lo ~rng ~samples =
  let noise = Array.make samples 0.0 in
  Prng.fill_gaussian rng ~scale:inst.noise_sigma_v noise;
  let leak = inst.leak_vpeak in
  fun buf ->
    Nonlin.apply_into inst.nonlin buf;
    for i = 0 to Array.length buf - 1 do
      let lo = lo.(i) in
      buf.(i) <- (2.0 *. buf.(i) *. lo) +. (leak *. lo) +. noise.(i)
    done

let saturation_input_v inst = Nonlin.saturation_input inst.nonlin

(* ---- attribute-domain propagation ---- *)

let abs_interval (i : I.t) =
  let lo = i.I.lo and hi = i.I.hi in
  if lo >= 0.0 then i
  else if hi <= 0.0 then I.neg i
  else I.make ~lo:0.0 ~hi:(Float.max (-.lo) hi)

let im3_power gain_i iip3_i p = I.add (I.sub (I.scale 3.0 p) (I.scale 2.0 iip3_i)) gain_i

let transform (p : params) ~(lo : Local_osc.params) ctx (s : Attr.t) =
  let gain_i = Param.interval p.gain_db in
  let iip3_i = Param.interval p.iip3_dbm in
  let f_lo = Local_osc.freq_interval_hz lo in
  let translate (tn : Attr.tone) =
    { Attr.freq_hz = abs_interval (I.sub tn.Attr.freq_hz f_lo);
      power_dbm = I.add tn.Attr.power_dbm gain_i;
      phase_rad =
        I.of_err (I.mid tn.Attr.phase_rad)
          ~err:
            (I.err tn.Attr.phase_rad
            +. Units.radians_of_degrees lo.Local_osc.phase_noise_deg_rms.Param.nominal) }
  in
  let translated = Attr.map_tones s ~f:translate in
  (* IM3 products of the translated tone pairs. *)
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
  in
  let translated_tones = translated.Attr.tones in
  let with_im3 =
    List.fold_left
      (fun acc ((t1 : Attr.tone), (t2 : Attr.tone)) ->
        (* Tone powers here are already post-gain; refer back to input. *)
        let input_power tone = I.sub tone.Attr.power_dbm gain_i in
        let weaker =
          if I.mid t1.Attr.power_dbm <= I.mid t2.Attr.power_dbm then input_power t1
          else input_power t2
        in
        let power = im3_power gain_i iip3_i weaker in
        let add acc freq =
          Attr.add_spur acc Attr.Intermod3
            { Attr.freq_hz = abs_interval freq; power_dbm = power; phase_rad = I.point 0.0 }
        in
        let f1 = t1.Attr.freq_hz and f2 = t2.Attr.freq_hz in
        add (add acc (I.sub (I.scale 2.0 f1) f2)) (I.sub (I.scale 2.0 f2) f1))
      translated (pairs translated_tones)
  in
  (* LO leakage spur at the LO frequency. *)
  let leak_power = I.sub (I.point lo.Local_osc.drive_dbm) (Param.interval p.lo_isolation_db) in
  let with_leak =
    Attr.add_spur with_im3 Attr.Lo_leakage
      { Attr.freq_hz = f_lo; power_dbm = leak_power; phase_rad = I.point 0.0 }
  in
  let gain = Units.power_ratio_of_db p.gain_db.Param.nominal in
  let added =
    Context.boltzmann *. ctx.Context.temperature_k *. ctx.Context.analysis_bw_hz
    *. Float.max 0.0 (Units.power_ratio_of_db p.nf_db.Param.nominal -. 1.0)
    *. gain
  in
  (* The LO phase-noise skirt scatters a fraction phi_rms^2 of every carried
     tone's power into the noise floor. *)
  let phi_rms =
    Units.radians_of_degrees lo.Local_osc.phase_noise_deg_rms.Param.nominal
  in
  let skirt =
    List.fold_left
      (fun acc (tn : Attr.tone) ->
        acc +. (Units.watts_of_dbm (I.mid tn.Attr.power_dbm) *. phi_rms *. phi_rms))
      0.0 translated_tones
  in
  { with_leak with
    Attr.noise_dbm =
      Units.dbm_of_watts ((Units.watts_of_dbm s.Attr.noise_dbm *. gain) +. added +. skirt) }
