module I = Msoc_util.Interval
module Units = Msoc_util.Units
module Prng = Msoc_util.Prng

type spur_origin =
  | Harmonic of int
  | Intermod3
  | Lo_leakage
  | Clock_spur
  | Alias

type tone = {
  freq_hz : I.t;
  power_dbm : I.t;
  phase_rad : I.t;
}

type spur = { origin : spur_origin; tone : tone }

type t = {
  tones : tone list;
  spurs : spur list;
  dc_volts : I.t;
  noise_dbm : float;
}

let thermal_floor_dbm = -174.0

let tone ?(phase_rad = 0.0) ~freq_hz ~power_dbm () =
  { freq_hz = I.point freq_hz; power_dbm = I.point power_dbm; phase_rad = I.point phase_rad }

let silence ?(noise_dbm = thermal_floor_dbm) () =
  { tones = []; spurs = []; dc_volts = I.point 0.0; noise_dbm }

let of_tones ?(noise_dbm = thermal_floor_dbm) ?(dc_volts = 0.0) tones =
  { tones; spurs = []; dc_volts = I.point dc_volts; noise_dbm }

let single_tone ?noise_dbm ~freq_hz ~power_dbm () =
  of_tones ?noise_dbm [ tone ~freq_hz ~power_dbm () ]

let two_tone ?noise_dbm ~f1_hz ~f2_hz ~power_dbm () =
  of_tones ?noise_dbm
    [ tone ~freq_hz:f1_hz ~power_dbm (); tone ~freq_hz:f2_hz ~power_dbm () ]

let sum_power_dbm tones =
  match tones with
  | [] -> -400.0
  | _ ->
    let watts =
      List.fold_left (fun acc tn -> acc +. Units.watts_of_dbm (I.mid tn.power_dbm)) 0.0 tones
    in
    Units.dbm_of_watts watts

let total_tone_power_dbm t = sum_power_dbm t.tones

let snr_db t =
  match t.tones with
  | [] -> I.point (-400.0)
  | _ ->
    let err =
      List.fold_left (fun acc tn -> Float.max acc (I.err tn.power_dbm)) 0.0 t.tones
    in
    I.of_err (total_tone_power_dbm t -. t.noise_dbm) ~err

let freq_accuracy_hz tn = I.err tn.freq_hz
let power_accuracy_db tn = I.err tn.power_dbm
let add_spur t origin tone = { t with spurs = { origin; tone } :: t.spurs }

let map_tones t ~f =
  { t with
    tones = List.map f t.tones;
    spurs = List.map (fun s -> { s with tone = f s.tone }) t.spurs }

let waveform t ~sample_rate ~samples ~rng =
  let components =
    List.map (fun tn -> tn) t.tones @ List.map (fun s -> s.tone) t.spurs
  in
  let dc = I.mid t.dc_volts in
  let noise_vrms = Units.vrms_of_dbm t.noise_dbm in
  Array.init samples (fun n ->
      let time = float_of_int n /. sample_rate in
      let deterministic =
        List.fold_left
          (fun acc tn ->
            let amplitude = Units.vpeak_of_dbm (I.mid tn.power_dbm) in
            let freq = I.mid tn.freq_hz and phase = I.mid tn.phase_rad in
            acc +. (amplitude *. sin ((Units.two_pi *. freq *. time) +. phase)))
          dc components
      in
      deterministic +. (noise_vrms *. Prng.gaussian rng))

let pp_origin ppf = function
  | Harmonic n -> Format.fprintf ppf "H%d" n
  | Intermod3 -> Format.pp_print_string ppf "IM3"
  | Lo_leakage -> Format.pp_print_string ppf "LO"
  | Clock_spur -> Format.pp_print_string ppf "CLK"
  | Alias -> Format.pp_print_string ppf "ALIAS"

let pp ppf t =
  let pp_tone ppf tn =
    Format.fprintf ppf "%.4g Hz @@ %.2f dBm (±%.2g Hz, ±%.2g dB)" (I.mid tn.freq_hz)
      (I.mid tn.power_dbm) (I.err tn.freq_hz) (I.err tn.power_dbm)
  in
  Format.fprintf ppf "@[<v>tones:";
  List.iter (fun tn -> Format.fprintf ppf "@,  %a" pp_tone tn) t.tones;
  List.iter
    (fun s -> Format.fprintf ppf "@,  spur[%a] %a" pp_origin s.origin pp_tone s.tone)
    t.spurs;
  Format.fprintf ppf "@,dc = %a V, noise = %.1f dBm@]" I.pp t.dc_volts t.noise_dbm
