module I = Msoc_util.Interval
module Units = Msoc_util.Units
module Prng = Msoc_util.Prng
module Attr = Msoc_signal.Attr

type params = {
  gain_db : Param.t;
  iip3_dbm : Param.t;
  dc_offset_v : Param.t;
  nf_db : Param.t;
}

type values = {
  gain_db : float;
  iip3_dbm : float;
  dc_offset_v : float;
  nf_db : float;
}

type instance = {
  nonlin : Nonlin.t;
  dc_offset_v : float;
  noise_sigma_v : float; (* output-referred, at the simulation rate *)
}

let default_params : params =
  { gain_db = Param.make ~nominal:20.0 ~tol:1.0;
    iip3_dbm = Param.make ~nominal:8.0 ~tol:1.5;
    dc_offset_v = Param.make ~nominal:0.0 ~tol:5e-3;
    nf_db = Param.make ~nominal:3.0 ~tol:0.5 }

let nominal_values (p : params) : values =
  { gain_db = p.gain_db.Param.nominal;
    iip3_dbm = p.iip3_dbm.Param.nominal;
    dc_offset_v = p.dc_offset_v.Param.nominal;
    nf_db = p.nf_db.Param.nominal }

let sample_values (p : params) g : values =
  { gain_db = Param.sample p.gain_db g;
    iip3_dbm = Param.sample p.iip3_dbm g;
    dc_offset_v = Param.sample p.dc_offset_v g;
    nf_db = Param.sample p.nf_db g }

(* Output-referred noise sigma for white noise spanning the simulation
   Nyquist band: P = kT * (fs/2) * (F - 1) * G. *)
let noise_sigma ctx ~gain_db ~nf_db =
  let bandwidth = ctx.Context.sim_rate_hz /. 2.0 in
  let factor = Units.power_ratio_of_db nf_db -. 1.0 in
  let gain = Units.power_ratio_of_db gain_db in
  let power = Context.boltzmann *. ctx.Context.temperature_k *. bandwidth *. Float.max 0.0 factor *. gain in
  sqrt (power *. Units.reference_ohms)

let instance ctx (v : values) =
  { nonlin =
      Nonlin.fit
        ~gain_lin:(Units.voltage_ratio_of_db v.gain_db)
        ~iip3_vpeak:(Units.vpeak_of_dbm v.iip3_dbm)
        ();
    dc_offset_v = v.dc_offset_v;
    noise_sigma_v = noise_sigma ctx ~gain_db:v.gain_db ~nf_db:v.nf_db }

let kernel inst ~rng ~samples =
  let noise = Array.make samples 0.0 in
  Prng.fill_gaussian rng ~scale:inst.noise_sigma_v noise;
  let dc = inst.dc_offset_v in
  fun buf ->
    Nonlin.apply_into inst.nonlin buf;
    for i = 0 to Array.length buf - 1 do
      buf.(i) <- buf.(i) +. dc +. noise.(i)
    done

let saturation_input_v inst = Nonlin.saturation_input inst.nonlin

(* ---- attribute-domain propagation ---- *)

let im3_power gain_i iip3_i tone_power_i =
  (* P_IM3 = 3 P_in - 2 IIP3 + G, every term an interval. *)
  I.add (I.sub (I.scale 3.0 tone_power_i) (I.scale 2.0 iip3_i)) gain_i

let hd3_offset_db = 9.5 (* single-tone HD3 sits ~9.5 dB below two-tone IM3 *)

let friis_noise_dbm ctx ~noise_in_dbm ~gain_db ~nf_db =
  let gain = Units.power_ratio_of_db gain_db in
  let added =
    Context.boltzmann *. ctx.Context.temperature_k *. ctx.Context.analysis_bw_hz
    *. Float.max 0.0 (Units.power_ratio_of_db nf_db -. 1.0)
    *. gain
  in
  Units.dbm_of_watts ((Units.watts_of_dbm noise_in_dbm *. gain) +. added)

let transform (p : params) ctx (s : Attr.t) =
  let gain_i = Param.interval p.gain_db in
  let iip3_i = Param.interval p.iip3_dbm in
  let amplify (tn : Attr.tone) = { tn with Attr.power_dbm = I.add tn.Attr.power_dbm gain_i } in
  let amplified = Attr.map_tones s ~f:amplify in
  (* HD3 per intentional tone. *)
  let with_hd3 =
    List.fold_left
      (fun acc (tn : Attr.tone) ->
        let power =
          I.of_err
            (I.mid (im3_power gain_i iip3_i tn.Attr.power_dbm) -. hd3_offset_db)
            ~err:(I.err (im3_power gain_i iip3_i tn.Attr.power_dbm))
        in
        Attr.add_spur acc (Attr.Harmonic 3)
          { Attr.freq_hz = I.scale 3.0 tn.Attr.freq_hz; power_dbm = power;
            phase_rad = I.point 0.0 })
      amplified s.Attr.tones
  in
  (* IM3 for each unordered pair of intentional tones. *)
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
  in
  let with_im3 =
    List.fold_left
      (fun acc ((t1 : Attr.tone), (t2 : Attr.tone)) ->
        let weaker =
          if I.mid t1.Attr.power_dbm <= I.mid t2.Attr.power_dbm then t1.Attr.power_dbm
          else t2.Attr.power_dbm
        in
        let power = im3_power gain_i iip3_i weaker in
        let add_product acc freq =
          Attr.add_spur acc Attr.Intermod3
            { Attr.freq_hz = freq; power_dbm = power; phase_rad = I.point 0.0 }
        in
        let f_low = I.sub (I.scale 2.0 t1.Attr.freq_hz) t2.Attr.freq_hz in
        let f_high = I.sub (I.scale 2.0 t2.Attr.freq_hz) t1.Attr.freq_hz in
        add_product (add_product acc f_low) f_high)
      with_hd3
      (pairs s.Attr.tones)
  in
  let gain_v =
    I.map_monotone Units.voltage_ratio_of_db gain_i
  in
  { with_im3 with
    Attr.dc_volts = I.add (I.mul s.Attr.dc_volts gain_v) (Param.interval p.dc_offset_v);
    Attr.noise_dbm =
      friis_noise_dbm ctx ~noise_in_dbm:s.Attr.noise_dbm ~gain_db:p.gain_db.Param.nominal
        ~nf_db:p.nf_db.Param.nominal }
