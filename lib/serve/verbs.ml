(* Shared bodies of the compute verbs: one implementation each, used by
   both the msoc CLI subcommands and the daemon executor.  The rendered
   text is identical byte for byte in both front ends (CI diffs them),
   and the [serve.execute] / [serve.serialize] span split is attributed
   the same way whether a request came over the socket or argv. *)

module Prng = Msoc_util.Prng
module Lru = Msoc_util.Lru
module Texttable = Msoc_util.Texttable
module Obs = Msoc_obs.Obs
module Path = Msoc_analog.Path
module Topology = Msoc_analog.Topology
module Monte_carlo = Msoc_stat.Monte_carlo
module Soc = Msoc_soc.Soc
module Schedule = Msoc_soc.Schedule
open Msoc_synth

let strategy_of (req : Protocol.request) =
  match req.strategy with
  | "nominal" -> Propagate.Nominal_gains
  | "adaptive" -> Propagate.Adaptive
  | s -> failwith (Printf.sprintf "unknown strategy %S (nominal|adaptive)" s)

let topology_path (req : Protocol.request) =
  match Topology.build req.topology with
  | Some p -> p
  | None ->
    failwith
      (Printf.sprintf "unknown topology %S (known: %s)" req.topology
         (String.concat ", " Topology.names))

let soc_of (req : Protocol.request) =
  match Soc.find req.soc with
  | Some soc -> soc
  | None ->
    failwith
      (Printf.sprintf "unknown SOC %S (known: %s)" req.soc
         (String.concat ", " Soc.names))

let plan ~pool:_ (req : Protocol.request) =
  let path = topology_path req in
  let strategy = strategy_of req in
  let plan = Obs.span "serve.execute" (fun () -> Plan.synthesize ~strategy path) in
  Obs.span "serve.serialize" (fun () -> Format.asprintf "%a@." Plan.pp_summary plan)

let measure ~pool:_ (req : Protocol.request) =
  let path = topology_path req in
  let strategy = strategy_of req in
  let validations =
    Obs.span "serve.execute" (fun () ->
        let part =
          if req.seed = 0 then Path.nominal_part path
          else Path.sample_part path (Prng.create req.seed)
        in
        Measure.validate_part path part ~strategy)
  in
  Obs.span "serve.serialize" (fun () ->
      let tbl =
        Texttable.create
          ~headers:[ "Parameter"; "True"; "Measured"; "Error"; "Budget" ]
      in
      List.iter
        (fun v ->
          Texttable.add_row tbl
            [ v.Measure.parameter;
              Printf.sprintf "%.5g" v.Measure.true_value;
              Printf.sprintf "%.5g" v.Measure.measured;
              Printf.sprintf "%+.3g" v.Measure.error;
              Printf.sprintf "±%.3g" v.Measure.budget ])
        validations;
      Printf.sprintf "part: %s (seed %d)\n\n"
        (if req.seed = 0 then "nominal" else "sampled within tolerances")
        req.seed
      ^ Texttable.render tbl)

let faultsim ~pool (req : Protocol.request) =
  if req.tones < 1 || req.tones > 2 then failwith "faultsim: tones must be 1 or 2";
  if req.taps < 1 then failwith "faultsim: taps must be at least 1";
  if req.samples < 64 then failwith "faultsim: samples must be at least 64";
  if req.coeff_bits < 2 || req.coeff_bits > 30 then
    failwith "faultsim: coeff_bits must be between 2 and 30";
  if req.input_bits < 2 then failwith "faultsim: input_bits must be at least 2";
  let config =
    { Digital_test.default_config with
      Digital_test.taps = req.taps;
      input_bits = req.input_bits;
      coeff_bits = req.coeff_bits }
  in
  let widest = Digital_test.max_input_bits config in
  if req.input_bits > widest then
    failwith
      (Printf.sprintf
         "faultsim: input_bits must be at most %d for %d taps at %d coefficient bits \
          (the filter's accumulator must fit a native int)"
         widest req.taps req.coeff_bits);
  let fir, faults, det =
    Obs.span "serve.execute" (fun () ->
        let fir = Digital_test.build config in
        let faults = Digital_test.collapsed_faults fir in
        let fs = 1e6 in
        let f1 =
          Digital_test.coherent_tone ~sample_rate:fs ~samples:req.samples ~target:90e3
        in
        let freqs =
          if req.tones = 1 then [ f1 ]
          else
            [ f1;
              Digital_test.coherent_tone ~sample_rate:fs ~samples:req.samples
                ~target:110e3 ]
        in
        let amplitude_fs = 0.9 /. float_of_int req.tones in
        (* seed 0 keeps the historical zero-phase stimulus; any other seed
           draws reproducible random tone phases *)
        let rng = if req.seed = 0 then None else Some (Prng.create req.seed) in
        let codes =
          Digital_test.ideal_codes ?rng config ~sample_rate:fs ~samples:req.samples
            ~freqs ~amplitude_fs
        in
        let det =
          Digital_test.spectral_coverage ~pool config fir ~sample_rate:fs
            ~input_codes:codes ~reference_codes:codes ~tone_freqs:freqs ~faults
        in
        (fir, faults, det))
  in
  Obs.span "serve.serialize" (fun () ->
      Format.asprintf "filter: %a@.faults: %d@.coverage: %.2f%% (%d/%d), floor %.1f dB@."
        Msoc_netlist.Netlist.pp_stats fir.Msoc_netlist.Fir_netlist.circuit
        (Array.length faults)
        (100.0 *. det.Digital_test.coverage)
        det.Digital_test.detected det.Digital_test.total det.Digital_test.noise_floor_db)

(* The Figure 4 error model ({!Propagate.mixer_iip3_trial}).  Trials run
   on the domain pool with one pre-split generator stream per trial, so
   the distribution is bit-identical at every pool size.  Seed 0 (the
   shared request default) means the canonical study seed, like seed 0
   means the nominal part elsewhere. *)
let montecarlo ~pool (req : Protocol.request) =
  if req.trials < 2 then failwith "montecarlo: trials must be at least 2";
  let strategy = strategy_of req in
  let seed = if req.seed = 0 then Propagate.figure4_seed else req.seed in
  let path = Path.default_receiver () in
  let m = Propagate.mixer_iip3 path ~strategy in
  let errs =
    Obs.span "serve.execute" (fun () ->
        Monte_carlo.sample_array_pooled ~pool ~trials:req.trials ~rng:(Prng.create seed)
          ~f:(Propagate.mixer_iip3_trial path ~strategy)
          ())
  in
  Obs.span "serve.serialize" (fun () ->
      let rms = Msoc_stat.Describe.rms errs in
      let worst = Msoc_util.Floatx.max_abs errs in
      let t =
        Texttable.create ~headers:[ "Strategy"; "Budget (worst)"; "RMS err"; "Max err" ]
      in
      Texttable.add_row t
        [ Propagate.strategy_name strategy;
          Printf.sprintf "%.3f dB" (Propagate.err m);
          Printf.sprintf "%.3f dB" rms;
          Printf.sprintf "%.3f dB" worst ];
      Printf.sprintf "IIP3 de-embedding error, %d trials (seed %d):\n" req.trials seed
      ^ Texttable.render t)

let schedule ~pool (req : Protocol.request) =
  if req.restarts < 0 then failwith "schedule: restarts must be at least 0";
  if req.iters < 0 then failwith "schedule: iters must be at least 0";
  let soc = soc_of req in
  (* seed 0 (the shared request default) means the canonical annealing
     seed, like seed 0 means the nominal part elsewhere *)
  let seed = if req.seed = 0 then None else Some req.seed in
  let problem, greedy, annealed =
    Obs.span "serve.execute" (fun () ->
        let problem = Schedule.problem_of_soc soc in
        let greedy = Schedule.greedy problem in
        let annealed =
          Schedule.anneal ~restarts:req.restarts ~iters:req.iters ?seed ~pool problem
        in
        (problem, greedy, annealed))
  in
  Obs.span "serve.serialize" (fun () ->
      Schedule.render problem ~greedy ~annealed ^ "\n" ^ Schedule.breakdown problem)

(* The dispatch table: a verb is registered here once and both front ends
   pick it up.  Metrics/Ping/Sleep are not compute verbs — they read
   daemon state and stay in the server. *)
let handlers =
  [ (Protocol.Plan, plan);
    (Protocol.Measure, measure);
    (Protocol.Faultsim, faultsim);
    (Protocol.Montecarlo, montecarlo);
    (Protocol.Schedule, schedule) ]

let run ~pool (req : Protocol.request) =
  match List.assoc_opt req.verb handlers with
  | Some handler -> handler ~pool req
  | None ->
    invalid_arg
      (Printf.sprintf "Verbs.run: %S is not a compute verb"
         (Protocol.verb_name req.verb))

(* The audit trail of the plans a request's verb synthesizes, looked up
   the way [run] looks them up; a verb that synthesizes no plan has none. *)
let audit (req : Protocol.request) =
  match req.verb with
  | Protocol.Plan ->
    Plan.audit (Plan.synthesize ~strategy:(strategy_of req) (topology_path req))
  | Protocol.Schedule -> Schedule.audit (soc_of req)
  | Protocol.Measure | Protocol.Faultsim | Protocol.Montecarlo | Protocol.Metrics
  | Protocol.Ping | Protocol.Sleep -> []

(* ------------------------------------------------------------------ *)
(* Synthesis result cache.  Compute verbs are pure functions of their   *)
(* canonical key (Protocol.cache_key), so the rendered body can be      *)
(* reused outright — both front ends share this layer, which is what    *)
(* keeps a cached daemon reply byte-identical to a cold CLI run.        *)
(* ------------------------------------------------------------------ *)

type cache = string Lru.t

let create_cache ~size = if size <= 0 then None else Some (Lru.create ~capacity:size)

let cache_stats cache = (Lru.hits cache, Lru.misses cache, Lru.evictions cache)

let cache_find cache (req : Protocol.request) =
  Option.bind (Protocol.cache_key req) (Lru.find cache)

(* Fill without probing: the daemon acceptor already counted the miss at
   admission time, so the executor's fill must not touch the hit/miss
   counters.  No-op for uncacheable verbs. *)
let cache_add cache (req : Protocol.request) body =
  match Protocol.cache_key req with
  | None -> ()
  | Some key -> Lru.add cache key body
