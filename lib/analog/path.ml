module I = Msoc_util.Interval
module Prng = Msoc_util.Prng
module Attr = Msoc_signal.Attr

type t = { ctx : Context.t; stages : Stage.t list }
type part = (string * Stage.values) list

(* ---- construction & validation ---- *)

let validate ctx stages =
  if stages = [] then invalid_arg "Path.create: empty stage list";
  let ids =
    List.concat_map
      (fun s ->
        s.Stage.id :: (match Stage.lo_id s with Some lo -> [ lo ] | None -> []))
      stages
  in
  let rec dup = function
    | [] -> None
    | x :: rest -> if List.mem x rest then Some x else dup rest
  in
  (match dup ids with
  | Some id -> invalid_arg (Printf.sprintf "Path.create: duplicate stage id %S" id)
  | None -> ());
  let digitizers = List.filter Stage.is_digitizer stages in
  (match digitizers with
  | [ d ] ->
    (match List.rev stages with
    | last :: _ when last == d -> ()
    | _ -> invalid_arg "Path.create: the digitizer must be the last stage")
  | [] -> invalid_arg "Path.create: a path needs exactly one digitizing stage"
  | _ -> invalid_arg "Path.create: more than one digitizing stage");
  let decimation =
    match Stage.decimation (List.hd digitizers) with Some d -> d | None -> 1
  in
  if decimation < 1 then invalid_arg "Path.create: decimation must be >= 1";
  let out_rate = ctx.Context.sim_rate_hz /. float_of_int decimation in
  List.iter
    (fun s ->
      match s.Stage.block with
      | Stage.Lpf p ->
        if p.Lpf.cutoff_hz.Param.nominal > out_rate /. 2.0 then
          invalid_arg
            (Printf.sprintf
               "Path.create: stage %S cutoff %.0f Hz exceeds the digitizer Nyquist %.0f Hz"
               s.Stage.id p.Lpf.cutoff_hz.Param.nominal (out_rate /. 2.0))
      | Stage.Amp _ | Stage.Mix _ | Stage.Adc _ | Stage.Sd_adc _ -> ())
    stages

let create ~ctx stages =
  validate ctx stages;
  { ctx; stages }

let default_receiver () =
  let ctx = Context.default in
  create ~ctx
    [ Stage.amp Amplifier.default_params;
      Stage.mixer ~lo:(Local_osc.default_params ~freq_hz:1e6) Mixer.default_params;
      Stage.lpf (Lpf.default_params ~clock_hz:3.3e6);
      Stage.adc ~decimation:8 Adc.default_params ]

(* ---- structural accessors ---- *)

let digitizer t = List.find Stage.is_digitizer t.stages

let decimation t =
  match Stage.decimation (digitizer t) with Some d -> d | None -> 1

let adc_rate_hz t = t.ctx.Context.sim_rate_hz /. float_of_int (decimation t)

let settle_cycles t =
  Int.max 1 (List.fold_left (fun acc s -> acc + Stage.settle_cycles s) 0 t.stages)
let find_stage t id = List.find_opt (fun s -> String.equal s.Stage.id id) t.stages

let first_mixer t =
  List.find_opt (fun s -> match s.Stage.block with Stage.Mix _ -> true | _ -> false) t.stages

let lo_freq_hz t =
  match first_mixer t with
  | Some s -> (match Stage.lo_params s with Some lo -> Some lo.Local_osc.freq_hz | None -> None)
  | None -> None

(* A parameter id either names a stage directly or names the LO owned by a
   mixer stage. *)
let param_opt t ~stage ~name =
  match find_stage t stage with
  | Some s -> Stage.param s ~name
  | None ->
    List.find_map
      (fun s ->
        match Stage.lo_id s with
        | Some lo when String.equal lo stage -> List.assoc_opt name (Stage.lo_params_named s)
        | _ -> None)
      t.stages

let param t ~stage ~name =
  match param_opt t ~stage ~name with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Path.param: no parameter %S on stage %S" name stage)

(* ---- de-embedding folds ---- *)

let gain_stages t =
  List.filter_map
    (fun s -> match Stage.gain_param s with Some g -> Some (s, g) | None -> None)
    t.stages

let gains_before t ~stage =
  let rec go acc = function
    | [] -> List.rev acc
    | s :: _ when String.equal s.Stage.id stage -> List.rev acc
    | s :: rest ->
      (match Stage.gain_param s with
      | Some g -> go (g :: acc) rest
      | None -> go acc rest)
  in
  go [] t.stages

let gains_from t ~stage =
  let rec skip = function
    | [] -> []
    | s :: rest when String.equal s.Stage.id stage -> s :: rest
    | _ :: rest -> skip rest
  in
  List.filter_map Stage.gain_param (skip t.stages)

let nominal_path_gain_db t =
  List.fold_left (fun acc (_, g) -> acc +. g.Param.nominal) 0.0 (gain_stages t)

(* Right-nested accumulation — the historical association order, kept for
   bit-identity of interval bounds. *)
let path_gain_interval_db t =
  let rec go = function
    | [] -> I.point 0.0
    | [ (_, g) ] -> Param.interval g
    | (_, g) :: rest -> I.add (Param.interval g) (go rest)
  in
  go (gain_stages t)

(* ---- manufactured parts ---- *)

let nominal_part t = List.map (fun s -> (s.Stage.id, Stage.nominal_values s)) t.stages

let sample_part t g =
  (* Draws happen in REVERSE stage order (and mixer before LO inside a
     mixer stage): the historical sampler was a record expression, whose
     fields OCaml evaluates right to left.  The returned part is still in
     path order. *)
  let rec go acc = function
    | [] -> acc
    | s :: rest -> go ((s.Stage.id, Stage.sample_values s g) :: acc) rest
  in
  go [] (List.rev t.stages)

let part_values part ~stage =
  match List.assoc_opt stage part with
  | Some v -> Some v
  | None -> None

let part_value_opt t part ~stage ~name =
  match part_values part ~stage with
  | Some v -> Stage.value v ~name
  | None ->
    (* an LO id: find the owning mixer stage *)
    List.find_map
      (fun s ->
        match Stage.lo_id s with
        | Some lo when String.equal lo stage -> (
          match List.assoc_opt s.Stage.id part with
          | Some v -> Stage.lo_value v ~name
          | None -> None)
        | _ -> None)
      t.stages

let part_value t part ~stage ~name =
  match part_value_opt t part ~stage ~name with
  | Some x -> x
  | None ->
    invalid_arg (Printf.sprintf "Path.part_value: no value %S on stage %S" name stage)

let with_value t part ~stage ~name x =
  let set id f =
    List.map (fun (k, v) -> if String.equal k id then (k, f v) else (k, v)) part
  in
  match find_stage t stage with
  | Some s ->
    set s.Stage.id (fun v ->
        match Stage.set_value v ~name x with
        | Some v' -> v'
        | None ->
          invalid_arg
            (Printf.sprintf "Path.with_value: no value %S on stage %S" name stage))
  | None -> (
    match
      List.find_opt
        (fun s -> match Stage.lo_id s with Some lo -> String.equal lo stage | None -> false)
        t.stages
    with
    | Some s ->
      set s.Stage.id (fun v ->
          match Stage.set_lo_value v ~name x with
          | Some v' -> v'
          | None ->
            invalid_arg
              (Printf.sprintf "Path.with_value: no LO value %S on stage %S" name stage))
    | None -> invalid_arg (Printf.sprintf "Path.with_value: no stage %S" stage))

(* ---- waveform engine ---- *)

type engine = {
  samples : int;
  kernels : (float array -> unit) array;  (* analog stages, path order *)
  capture : float array -> int array;
  volts_per_code : float;
}

let engine t part ~seed ~samples =
  let root = Prng.create seed in
  (* instantiate in stage order: the sequential Prng.split calls inside
     Stage.instantiate reproduce the historical per-block stream layout *)
  let kernels = ref [] and digitizer = ref None in
  List.iter
    (fun s ->
      let values =
        match List.assoc_opt s.Stage.id part with
        | Some v -> v
        | None ->
          invalid_arg (Printf.sprintf "Path.engine: part has no values for stage %S" s.Stage.id)
      in
      match Stage.instantiate s ~ctx:t.ctx values ~root ~samples with
      | Stage.Analog kernel -> kernels := kernel :: !kernels
      | Stage.Digitize { capture; volts_per_code } -> digitizer := Some (capture, volts_per_code))
    t.stages;
  (* [create] admits only paths ending in exactly one digitizer *)
  let capture, volts_per_code = Option.get !digitizer in
  { samples; kernels = Array.of_list (List.rev !kernels); capture; volts_per_code }

let check_length e input =
  if Array.length input <> e.samples then
    invalid_arg
      (Printf.sprintf "Path.run: engine built for %d samples, input has %d" e.samples
         (Array.length input))

(* The analog stages run in place over a working copy of the input. *)
let run_stages e buf = Array.iter (fun kernel -> kernel buf) e.kernels

let run_analog e input =
  check_length e input;
  let buf = Array.copy input in
  run_stages e buf;
  buf

(* [run_codes] hands back only the digitizer's codes, so its working copy
   is per-domain scratch, one buffer per capture length: a validation's
   dozens of captures then leave no simulation-length garbage behind. *)
let work_buffer = Msoc_util.Pool.per_domain (fun n -> Array.make n 0.0)

let run_codes e input =
  check_length e input;
  let buf = work_buffer e.samples in
  Array.blit input 0 buf 0 e.samples;
  run_stages e buf;
  e.capture buf

let run_volts e input =
  let codes = run_codes e input in
  let volts = Array.make (Array.length codes) 0.0 in
  for i = 0 to Array.length codes - 1 do
    volts.(i) <- float_of_int codes.(i) *. e.volts_per_code
  done;
  volts

(* ---- attribute-domain propagation ---- *)

let stages t signal =
  let rate = adc_rate_hz t in
  let rec go acc signal = function
    | [] -> List.rev acc
    | s :: rest ->
      let signal = Stage.transfer s ~ctx:t.ctx ~adc_rate_hz:rate signal in
      go ((String.lowercase_ascii s.Stage.id, signal) :: acc) signal rest
  in
  go [] signal t.stages

let at_filter_input t signal =
  match List.rev (stages t signal) with
  | (_, last) :: _ -> last
  | [] -> signal
