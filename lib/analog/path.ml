module I = Msoc_util.Interval
module Prng = Msoc_util.Prng
module Attr = Msoc_signal.Attr

type t = { ctx : Context.t; stages : Stage.t list }
type part = (string * Stage.values) list

(* ---- construction & validation ---- *)

let validate ctx stages =
  if stages = [] then invalid_arg "Path.create: empty stage list";
  let ids = List.concat_map Stage.owners stages in
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
let first_stage t is_block = List.find_opt (fun s -> is_block s.Stage.block) t.stages
let first_mixer t = first_stage t (function Stage.Mix _ -> true | _ -> false)

let lo_freq_hz t =
  match first_mixer t with
  | Some { Stage.block = Stage.Mix { lo; _ }; _ } -> Some lo.Local_osc.freq_hz
  | _ -> None

let missing what ~stage ~name =
  invalid_arg (Printf.sprintf "Path.%s %S on stage %S" what name stage)

(* The stage answering to owner id [stage] and its row [name]; [what]
   completes the error naming both. *)
let row what t ~stage ~name =
  let named r = String.equal r.Stage.name name in
  let rec go = function
    | [] -> missing what ~stage ~name
    | s :: rest -> (
      match List.find_opt named (Stage.rows s ~owner:stage) with
      | Some r -> (s, r)
      | None -> go rest)
  in
  go t.stages

let param t ~stage ~name =
  let s, r = row "param: no parameter" t ~stage ~name in
  r.Stage.param s.Stage.block

(* ---- de-embedding folds ---- *)

let gains stages =
  List.filter_map
    (fun s -> match Stage.gain_param s with Some g -> Some (s, g) | None -> None)
    stages

let gain_stages t = gains t.stages

let gains_before t ~stage =
  let rec before = function
    | s :: rest when not (String.equal s.Stage.id stage) -> s :: before rest
    | _ -> []
  in
  gains (before t.stages)

let gains_from t ~stage =
  let rec from = function
    | s :: _ as rest when String.equal s.Stage.id stage -> rest
    | _ :: rest -> from rest
    | [] -> []
  in
  gains (from t.stages)

let nominal_gain_db gains =
  List.fold_left (fun acc (_, g) -> acc +. g.Param.nominal) 0.0 gains

let nominal_path_gain_db t = nominal_gain_db (gain_stages t)

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

let part_value t part ~stage ~name =
  let s, r = row "part_value: no value" t ~stage ~name in
  match List.assoc_opt s.Stage.id part with
  | Some v -> r.Stage.get v
  | None -> missing "part_value: no value" ~stage ~name

let with_value t part ~stage ~name x =
  let s, r = row "with_value: no value" t ~stage ~name in
  List.map
    (fun ((id, v) as kv) -> if String.equal id s.Stage.id then (id, r.Stage.set v x) else kv)
    part

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
