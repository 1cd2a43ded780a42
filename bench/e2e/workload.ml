(* The four workloads' request streams, built from the run seed alone: the
   same seed always yields the same requests.  The seed chooses only the
   request seeds (part, stimulus-phase and annealing seeds); the order of
   verbs and of request sizes is fixed, so every seed asks for the same
   amount of work. *)

module P = Msoc_serve.Protocol

type t = Cli_paper | Serve_sweep | Serve_dup | Serve_hot

let all =
  [ ("cli-paper", Cli_paper); ("serve-sweep", Serve_sweep); ("serve-dup", Serve_dup);
    ("serve-hot", Serve_hot) ]

let name w = fst (List.find (fun (_, w') -> w' = w) all)
let of_name s = List.assoc_opt s all

let topologies = [ "default"; "sigma-delta"; "amp-bypass" ]
let strategies = [ "nominal"; "adaptive" ]

let rng ~seed parts = Random.State.make (Array.of_list (seed :: parts))

let product xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

(* ---- cli-paper: the paper's artefacts, one msoc process each ---- *)

(* The paper-scale faultsims with their coverage lines.  The 80.87% and
   85.59% lines are the 80.9% and 85.6% figures of EXPERIMENTS.md. *)
let paper_faultsims =
  [ (P.request ~taps:13 ~input_bits:12 ~samples:2048 ~tones:2 P.Faultsim, "85.59% (5519/6448)");
    (P.request ~taps:13 ~input_bits:14 ~samples:2048 ~tones:2 P.Faultsim, "79.70% (5694/7144)");
    (P.request ~taps:16 ~input_bits:12 ~samples:2048 ~tones:1 P.Faultsim, "80.87% (6981/8632)");
    (P.request ~taps:16 ~input_bits:12 ~samples:2048 ~tones:2 P.Faultsim, "83.83% (7236/8632)") ]

let pin (req : P.request) =
  List.find_map
    (fun (r, line) -> if P.cache_key r = P.cache_key req then Some line else None)
    paper_faultsims

(* Verbs are interleaved so that any prefix of the list (the traced replay
   runs one) reaches every verb early. *)
let cli_paper ~seed =
  let st = rng ~seed [ 1 ] in
  let pairs = product topologies strategies in
  let plans = List.map (fun (topology, strategy) -> P.request ~topology ~strategy P.Plan) pairs in
  let measures =
    List.map
      (fun (topology, strategy) ->
        P.request ~topology ~strategy ~seed:(1 + Random.State.int st 1_000_000) P.Measure)
      pairs
  in
  let montecarlos =
    List.map (fun strategy -> P.request ~strategy ~trials:50_000 P.Montecarlo) strategies
  in
  let schedules = List.map (fun soc -> P.request ~soc P.Schedule) [ "reference"; "narrow" ] in
  let faultsims = List.map fst paper_faultsims in
  let rec interleave queues =
    match List.filter (( <> ) []) queues with
    | [] -> []
    | queues -> List.map List.hd queues @ interleave (List.map List.tl queues)
  in
  interleave [ plans; montecarlos; schedules; measures; faultsims ]

(* ---- serve-sweep / serve-dup: compute requests with distinct keys ---- *)

type kind = Fault | Meas | Sched | Mc

(* One block of 20 in a fixed order that spreads each verb evenly: 40%
   faultsim, 15% measure, 25% schedule, 20% montecarlo.  The order does
   not depend on the seed, so a time-bounded run always covers the same
   prefix of work. *)
let sweep_block =
  [| Fault; Sched; Fault; Mc; Meas; Fault; Sched; Fault; Mc; Fault;
     Sched; Meas; Fault; Mc; Fault; Sched; Fault; Mc; Meas; Sched |]

let count_before k p =
  let n = ref 0 in
  for q = 0 to p - 1 do
    if sweep_block.(q) = k then incr n
  done;
  !n

let fault_shapes = Array.of_list (product (product [ 5; 7; 9 ] [ 256; 512 ]) [ 1; 2 ])
let measure_shapes = Array.of_list (product topologies strategies)
let schedule_socs = [| "reference"; "narrow" |]
let mc_shapes = Array.of_list (product strategies [ 20_000; 50_000 ])

(* Request [j] of a sweep sequence.  Sizes cycle through every shape of
   their verb in turn, so a run of a few blocks carries each shape in
   equal measure.  The request seed is unique per (client, index): no key
   repeats in a run. *)
let sweep_request ~base ~client j =
  let len = Array.length sweep_block in
  let kind = sweep_block.(j mod len) in
  let ordinal = ((j / len) * count_before kind len) + count_before kind (j mod len) in
  let pick shapes = shapes.(ordinal mod Array.length shapes) in
  let seed = base + (client * 1_000_000) + j in
  match kind with
  | Fault ->
    let (taps, samples), tones = pick fault_shapes in
    P.request ~taps ~samples ~tones ~seed P.Faultsim
  | Meas ->
    let topology, strategy = pick measure_shapes in
    P.request ~topology ~strategy ~seed P.Measure
  | Sched -> P.request ~soc:(pick schedule_socs) ~restarts:4 ~iters:200 ~seed P.Schedule
  | Mc ->
    let strategy, trials = pick mc_shapes in
    P.request ~strategy ~trials ~seed P.Montecarlo

(* ---- serve-hot: a 20-key working set ---- *)

let hot_keys ~seed =
  let st = rng ~seed [ 3 ] in
  let fresh () = 1 + Random.State.int st 1_000_000 in
  let plans =
    List.map (fun (topology, strategy) -> P.request ~topology ~strategy P.Plan)
      (product topologies strategies)
  in
  let schedules =
    List.concat_map
      (fun soc ->
        List.init 4 (fun _ -> P.request ~soc ~restarts:4 ~iters:200 ~seed:(fresh ()) P.Schedule))
      [ "reference"; "narrow" ]
  in
  let montecarlos =
    List.concat_map
      (fun strategy ->
        List.init 2 (fun _ -> P.request ~strategy ~trials:20_000 ~seed:(fresh ()) P.Montecarlo))
      strategies
  in
  Array.of_list (plans @ schedules @ montecarlos @ [ P.request P.Ping; P.request P.Metrics ])

let cacheable (req : P.request) = P.cache_key req <> None

(* [stream w ~seed ~client] is client [client]'s request sequence, indexed
   from 0.  Both connections walk the same verb and size sequence in
   step, so the two executors always overlap the same pairs of requests
   and the daemon's peak memory repeats from run to run.  On serve-sweep
   the second connection's requests carry their own seeds; on serve-dup
   both send the very same requests. *)
let stream w ~seed ~client =
  match w with
  | Cli_paper -> invalid_arg "Workload.stream: cli-paper runs a fixed list"
  | Serve_hot ->
    let keys = hot_keys ~seed in
    fun i -> keys.(i mod Array.length keys)
  | Serve_sweep | Serve_dup ->
    let client = if w = Serve_dup then 0 else client in
    let base = 2_000_000 * (1 + Random.State.int (rng ~seed [ 2 ]) 1_000_000) in
    sweep_request ~base ~client
