module I = Msoc_util.Interval
module Units = Msoc_util.Units

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

(* An exact (zero-accuracy-loss) tone at phase 0. *)
let tone ~freq_hz ~power_dbm =
  { freq_hz = I.point freq_hz; power_dbm = I.point power_dbm; phase_rad = I.point 0.0 }

let of_tones ?(noise_dbm = thermal_floor_dbm) tones =
  { tones; spurs = []; dc_volts = I.point 0.0; noise_dbm }

let silence ?noise_dbm () = of_tones ?noise_dbm []

let single_tone ?noise_dbm ~freq_hz ~power_dbm () =
  of_tones ?noise_dbm [ tone ~freq_hz ~power_dbm ]

let two_tone ?noise_dbm ~f1_hz ~f2_hz ~power_dbm () =
  of_tones ?noise_dbm
    [ tone ~freq_hz:f1_hz ~power_dbm; tone ~freq_hz:f2_hz ~power_dbm ]

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
