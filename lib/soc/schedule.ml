(* SOC test scheduling: pack every synthesized test of every wrapped core
   onto the shared ATE under the bus-width and power constraints, and
   minimize the makespan.

   The schedule space is explored as priority permutations decoded by a
   deterministic event-driven list scheduler: any permutation decodes to a
   feasible schedule, so a simulated-annealing walk over permutations
   (restarts fanned out over the pool) refines the LPT greedy baseline.
   The reduction over restarts runs in restart-index order and prefers a
   strictly better makespan, so the chosen schedule is bit-identical at
   every pool size and the annealed makespan can never exceed greedy's. *)

module Pool = Msoc_util.Pool
module Prng = Msoc_util.Prng
module Texttable = Msoc_util.Texttable
module Obs = Msoc_obs.Obs
module Plan = Msoc_synth.Plan
module Cost = Msoc_synth.Cost
module Topology = Msoc_analog.Topology

type test = {
  core : string;
  name : string;          (* "<core>:<plan step name>" *)
  cycles : int;           (* application + wrapper load (+ fixture) *)
  bus_bits : int;
  power_mw : float;
  prereqs : int list;     (* indices into the problem's test array *)
}

type problem = { soc : Soc.t; tests : test array }

(* Every core's synthesized plan, in core order: the plans the schedule
   prices are the plans the audit trail describes. *)
let core_plans soc =
  List.map
    (fun (core : Soc.core) ->
      match Topology.build core.Soc.topology with
      | Some path -> (core, Plan.synthesize path)
      | None -> invalid_arg ("Schedule: unknown topology " ^ core.Soc.topology))
    soc.Soc.cores

let problem_of_soc soc =
  Obs.span "schedule.derive" ~args:[ ("soc", soc.Soc.name) ] @@ fun () ->
  let tests = ref [] and count = ref 0 in
  List.iter
    (fun ((core : Soc.core), plan) ->
      let steps = Plan.schedule plan in
      let base = !count in
      let index_of name =
        (* prerequisite names are plan-step names within the same core *)
        List.find_map
          (fun (s : Plan.step) ->
            if String.equal s.Plan.name name then Some (base + s.Plan.position - 1)
            else None)
          steps
      in
      let load = Soc.wrapper_load_cycles core.Soc.wrapper in
      List.iter
        (fun (s : Plan.step) ->
          let fixture =
            if s.Plan.position = 1 then core.Soc.wrapper.Soc.fixture_cycles else 0
          in
          tests :=
            { core = core.Soc.name;
              name = core.Soc.name ^ ":" ^ s.Plan.name;
              cycles = Cost.ate_cycles s.Plan.cost + (load * s.Plan.captures) + fixture;
              bus_bits = core.Soc.wrapper.Soc.bus_bits;
              power_mw = core.Soc.power_mw;
              prereqs = List.filter_map index_of s.Plan.prerequisites }
            :: !tests;
          incr count)
        steps)
    (core_plans soc);
  { soc; tests = Array.of_list (List.rev !tests) }

let audit soc = List.concat_map (fun (_, plan) -> Plan.audit plan) (core_plans soc)

(* ---- deterministic event-driven list scheduler ---- *)

type placement = { start : int; finish : int }

type result = {
  makespan : int;
  placements : placement array;   (* indexed like the problem's tests *)
}

(* Decode a priority ranking into a schedule.  At each event time, tests
   whose prerequisites have finished and whose core is idle start in rank
   order as long as the bus and power constraints hold; then time advances
   to the earliest finish.  Pure function of (problem, rank). *)
let decode problem rank =
  let tests = problem.tests in
  let n = Array.length tests in
  let start = Array.make n (-1) in
  let finish = Array.make n max_int in
  let started = Array.make n false in
  let running = ref [] in
  let completed = ref 0 in
  let t = ref 0 in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare rank.(a) rank.(b)) order;
  while !completed < n do
    (* retire everything finishing at the current time *)
    running := List.filter (fun i -> finish.(i) > !t) !running;
    let bus = ref 0 and power = ref 0.0 in
    List.iter
      (fun i ->
        bus := !bus + tests.(i).bus_bits;
        power := !power +. tests.(i).power_mw)
      !running;
    let core_busy c =
      List.exists (fun i -> String.equal tests.(i).core c) !running
    in
    (* start every eligible test that fits, in rank order *)
    Array.iter
      (fun i ->
        if
          (not started.(i))
          && List.for_all (fun p -> started.(p) && finish.(p) <= !t) tests.(i).prereqs
          && (not (core_busy tests.(i).core))
          && !bus + tests.(i).bus_bits <= problem.soc.Soc.bus_bits
          && !power +. tests.(i).power_mw <= problem.soc.Soc.power_budget_mw +. 1e-9
        then begin
          started.(i) <- true;
          start.(i) <- !t;
          finish.(i) <- !t + tests.(i).cycles;
          bus := !bus + tests.(i).bus_bits;
          power := !power +. tests.(i).power_mw;
          running := i :: !running
        end)
      order;
    match !running with
    | [] ->
      if !completed < n then
        invalid_arg "Schedule.decode: stuck (prerequisite cycle or infeasible test)"
    | l ->
      let tmin = List.fold_left (fun acc i -> Int.min acc finish.(i)) max_int l in
      t := tmin;
      List.iter (fun i -> if finish.(i) = tmin then incr completed) l
  done;
  let makespan = Array.fold_left (fun acc f -> Int.max acc f) 0 finish in
  { makespan; placements = Array.init n (fun i -> { start = start.(i); finish = finish.(i) }) }

(* Longest-processing-time ranking: descending cycles, ties by index. *)
let greedy_rank problem =
  let n = Array.length problem.tests in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = compare problem.tests.(b).cycles problem.tests.(a).cycles in
      if c <> 0 then c else compare a b)
    order;
  let rank = Array.make n 0 in
  Array.iteri (fun position i -> rank.(i) <- position) order;
  rank

let greedy problem =
  Obs.span "schedule.greedy" @@ fun () -> decode problem (greedy_rank problem)

(* ---- simulated-annealing refinement ---- *)

type anneal_stats = { restarts : int; iterations : int; accepted : int; rejected : int }

(* One restart: perturb the greedy ranking with a few seed-dependent swaps,
   then a Metropolis walk over rank swaps with geometric cooling.  Returns
   the best makespan seen, the ranking that achieved it, and the move
   counts (accumulated by the caller — workers never touch global sinks,
   keeping the fan-out deterministic). *)
let restart_walk problem base_rank ~iters rng =
  let n = Array.length base_rank in
  let rank = Array.copy base_rank in
  let swap i j =
    let tmp = rank.(i) in
    rank.(i) <- rank.(j);
    rank.(j) <- tmp
  in
  for _ = 1 to 1 + (n / 8) do
    swap (Prng.int rng n) (Prng.int rng n)
  done;
  let current = ref (decode problem rank).makespan in
  let best = ref !current in
  let best_rank = ref (Array.copy rank) in
  let temperature = ref (Float.max 1.0 (float_of_int !current /. 10.0)) in
  (* cool to ~0.1% of the initial temperature over the walk *)
  let alpha = exp (log 1e-3 /. float_of_int (Int.max 1 iters)) in
  let accepted = ref 0 and rejected = ref 0 in
  for _ = 1 to iters do
    let i = Prng.int rng n and j = Prng.int rng n in
    if i <> j then begin
      swap i j;
      let candidate = (decode problem rank).makespan in
      let delta = candidate - !current in
      if delta <= 0 || Prng.float rng < exp (-.float_of_int delta /. !temperature)
      then begin
        incr accepted;
        current := candidate;
        if candidate < !best then begin
          best := candidate;
          best_rank := Array.copy rank
        end
      end
      else begin
        incr rejected;
        swap i j
      end
    end;
    temperature := !temperature *. alpha
  done;
  (!best, !best_rank, !accepted, !rejected)

let anneal ?(restarts = 8) ?(iters = 400) ?(seed = 42) ?pool problem =
  if restarts < 0 then invalid_arg "Schedule.anneal: restarts must be >= 0";
  if iters < 0 then invalid_arg "Schedule.anneal: iters must be >= 0";
  Obs.span "schedule.anneal"
    ~args:
      [ ("restarts", string_of_int restarts); ("iters", string_of_int iters);
        ("soc", problem.soc.Soc.name) ]
  @@ fun () ->
  let base_rank = greedy_rank problem in
  let baseline = decode problem base_rank in
  let walks =
    match pool with
    | _ when restarts = 0 -> [||]
    | Some pool ->
      (* every restart is one grain: per-restart streams come pre-split
         from the seed, so the fan-out is bit-identical at any pool size *)
      Pool.parallel_init_rng ~grain:1 pool ~rng:(Prng.create seed) restarts
        (fun rng _ -> restart_walk problem base_rank ~iters rng)
    | None ->
      let streams = Pool.split_streams (Prng.create seed) restarts in
      Array.init restarts (fun r -> restart_walk problem base_rank ~iters streams.(r))
  in
  (* deterministic reduction: fold in restart-index order, strictly better
     makespan wins — the annealed result can never lose to greedy *)
  let best_makespan = ref baseline.makespan in
  let best_rank = ref base_rank in
  let accepted = ref 0 and rejected = ref 0 in
  Array.iter
    (fun (makespan, rank, acc, rej) ->
      accepted := !accepted + acc;
      rejected := !rejected + rej;
      if makespan < !best_makespan then begin
        best_makespan := makespan;
        best_rank := rank
      end)
    walks;
  Obs.count ~by:restarts "schedule.restarts";
  Obs.count ~by:!accepted "schedule.moves.accepted";
  Obs.count ~by:!rejected "schedule.moves.rejected";
  let result = if !best_rank == base_rank then baseline else decode problem !best_rank in
  (result, { restarts; iterations = iters; accepted = !accepted; rejected = !rejected })

(* ---- validation (shared with the property tests) ---- *)

let check problem result =
  let tests = problem.tests in
  let n = Array.length tests in
  if Array.length result.placements <> n then Error "placement count mismatch"
  else begin
    let errors = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
    Array.iteri
      (fun i p ->
        if p.start < 0 then err "test %s never started" tests.(i).name;
        if p.finish - p.start <> tests.(i).cycles then
          err "test %s runs %d cycles, not %d" tests.(i).name (p.finish - p.start)
            tests.(i).cycles;
        List.iter
          (fun q ->
            if result.placements.(q).finish > p.start then
              err "test %s starts before its prerequisite %s finishes" tests.(i).name
                tests.(q).name)
          tests.(i).prereqs;
        if p.finish > result.makespan then err "test %s overruns the makespan" tests.(i).name)
      result.placements;
    (* constraint load at every start instant (loads only change there) *)
    Array.iter
      (fun p ->
        let bus = ref 0 and power = ref 0.0 in
        Array.iteri
          (fun j q ->
            if q.start <= p.start && p.start < q.finish then begin
              bus := !bus + tests.(j).bus_bits;
              power := !power +. tests.(j).power_mw
            end)
          result.placements;
        if !bus > problem.soc.Soc.bus_bits then
          err "bus overflow at cycle %d: %d > %d bits" p.start !bus problem.soc.Soc.bus_bits;
        if !power > problem.soc.Soc.power_budget_mw +. 1e-9 then
          err "power overflow at cycle %d: %.1f > %.1f mW" p.start !power
            problem.soc.Soc.power_budget_mw)
      result.placements;
    (* one test at a time per core *)
    Array.iteri
      (fun i p ->
        Array.iteri
          (fun j q ->
            if
              i < j
              && String.equal tests.(i).core tests.(j).core
              && p.start < q.finish && q.start < p.finish
            then err "core %s runs %s and %s concurrently" tests.(i).core tests.(i).name
                tests.(j).name)
          result.placements)
      result.placements;
    match List.rev !errors with [] -> Ok () | e :: _ -> Error e
  end

(* ---- rendering ---- *)

let seconds problem cycles = float_of_int cycles /. problem.soc.Soc.ate_clock_hz

let render problem ~greedy:g ~annealed:(a, stats) =
  let soc = problem.soc in
  let buffer = Buffer.create 4096 in
  Printf.bprintf buffer "SOC schedule: %s (%d cores, %d tests)\n" soc.Soc.name
    (Soc.core_count soc) (Array.length problem.tests);
  Printf.bprintf buffer
    "constraints: test bus %d bits, power budget %.1f mW, ATE clock %.3g MHz\n"
    soc.Soc.bus_bits soc.Soc.power_budget_mw (soc.Soc.ate_clock_hz /. 1e6);
  Printf.bprintf buffer "greedy makespan:   %8d cycles (%.3f ms)\n" g.makespan
    (1000.0 *. seconds problem g.makespan);
  Printf.bprintf buffer
    "annealed makespan: %8d cycles (%.3f ms, %.2f%% vs greedy; %d restarts x %d moves)\n\n"
    a.makespan
    (1000.0 *. seconds problem a.makespan)
    (100.0 *. (float_of_int a.makespan /. float_of_int g.makespan -. 1.0))
    stats.restarts stats.iterations;
  let table =
    Texttable.create ~headers:[ "Start"; "Finish"; "Core"; "Test"; "Cycles"; "Bus"; "mW" ]
  in
  let order = Array.init (Array.length problem.tests) (fun i -> i) in
  Array.sort
    (fun i j ->
      let c = compare a.placements.(i).start a.placements.(j).start in
      if c <> 0 then c else compare i j)
    order;
  Array.iter
    (fun i ->
      let test = problem.tests.(i) and p = a.placements.(i) in
      Texttable.add_row table
        [ string_of_int p.start; string_of_int p.finish; test.core; test.name;
          string_of_int test.cycles; string_of_int test.bus_bits;
          Printf.sprintf "%.0f" test.power_mw ])
    order;
  Buffer.add_string buffer (Texttable.render table);
  Buffer.contents buffer

let breakdown problem =
  let soc = problem.soc in
  let buffer = Buffer.create 1024 in
  Printf.bprintf buffer "Per-core application time: %s\n" soc.Soc.name;
  let table =
    Texttable.create
      ~headers:
        [ "Core"; "Topology"; "Tests"; "Load/capture"; "Fixture"; "Serial cycles";
          "Serial ms" ]
  in
  List.iter
    (fun (core : Soc.core) ->
      let mine =
        List.filter
          (fun t -> String.equal t.core core.Soc.name)
          (Array.to_list problem.tests)
      in
      let serial = List.fold_left (fun acc t -> acc + t.cycles) 0 mine in
      Texttable.add_row table
        [ core.Soc.name; core.Soc.topology; string_of_int (List.length mine);
          string_of_int (Soc.wrapper_load_cycles core.Soc.wrapper);
          string_of_int core.Soc.wrapper.Soc.fixture_cycles; string_of_int serial;
          Printf.sprintf "%.3f" (1000.0 *. seconds problem serial) ])
    soc.Soc.cores;
  Buffer.add_string buffer (Texttable.render table);
  Buffer.contents buffer
