(* SOC test scheduling: pack every synthesized test of every wrapped core
   onto the shared ATE under the bus-width and power constraints, and
   minimize the makespan.

   The schedule space is explored as priority permutations decoded by a
   deterministic event-driven list scheduler: any permutation decodes to a
   feasible schedule, so a simulated-annealing walk over permutations
   (restarts fanned out over the pool) refines the LPT greedy baseline.
   The reduction over restarts runs in restart-index order and prefers a
   strictly better makespan, so the chosen schedule is bit-identical at
   every pool size and the annealed makespan can never exceed greedy's.
   Every decode runs on the problem compiled once per search, in scratch
   its restart owns, and allocates nothing. *)

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
   prices are the plans the audit trail describes.  A plan is a pure
   function of its topology, so cores sharing a topology share one
   synthesis; nothing is kept across calls. *)
let core_plans soc =
  let synthesized = Hashtbl.create 4 in
  List.map
    (fun (core : Soc.core) ->
      let topology = core.Soc.topology in
      match Hashtbl.find_opt synthesized topology with
      | Some plan -> (core, plan)
      | None ->
        let plan =
          match Topology.build topology with
          | Some path -> Plan.synthesize path
          | None -> invalid_arg ("Schedule: unknown topology " ^ topology)
        in
        Hashtbl.add synthesized topology plan;
        (core, plan))
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
              cycles =
                Cost.ate_cycles s.Plan.cost + (load * s.Plan.cost.Cost.captures) + fixture;
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

(* The problem compiled for decoding: per-test arrays, each test's core
   as a small int, prerequisites as int arrays, and both caps.  Built once
   per search and only read afterwards, so restarts on different domains
   share it. *)
module Compiled = struct
  type t = {
    cycles : int array;
    bus : int array;
    power : float array;
    core : int array;            (* index among the problem's distinct core names *)
    prereqs : int array array;
    cores : int;
    bus_cap : int;
    power_cap : float;           (* budget + 1e-9 mW: the decoder's slack *)
  }

  let of_problem problem =
    let ids = Hashtbl.create 8 in
    let core_id name =
      match Hashtbl.find_opt ids name with
      | Some id -> id
      | None ->
        let id = Hashtbl.length ids in
        Hashtbl.add ids name id;
        id
    in
    let field f = Array.map f problem.tests in
    (* numbered before the record is built, which reads the count *)
    let core = field (fun (t : test) -> core_id t.core) in
    { cycles = field (fun (t : test) -> t.cycles);
      bus = field (fun (t : test) -> t.bus_bits);
      power = field (fun (t : test) -> t.power_mw);
      core;
      prereqs = field (fun (t : test) -> Array.of_list t.prereqs);
      cores = Hashtbl.length ids;
      bus_cap = problem.soc.Soc.bus_bits;
      power_cap = problem.soc.Soc.power_budget_mw +. 1e-9 }

  (* One decode's working state.  Each restart owns one and reuses it for
     every move of its walk.  [running] holds the running tests oldest
     first; [busy] counts them per core. *)
  type scratch = {
    start : int array;
    finish : int array;
    started : bool array;
    running : int array;
    busy : int array;
  }

  let scratch c =
    let n = Array.length c.cycles in
    { start = Array.make n (-1);
      finish = Array.make n max_int;
      started = Array.make n false;
      running = Array.make n 0;
      busy = Array.make c.cores 0 }

  let prerequisites_done c s i t =
    let ps = c.prereqs.(i) in
    let k = ref 0 in
    while !k < Array.length ps && s.started.(ps.(!k)) && s.finish.(ps.(!k)) <= t do
      incr k
    done;
    !k = Array.length ps

  (* Decode the ranking whose tests in rank order are [order] into [s] and
     return the makespan, allocating nothing.  At each event time, tests
     whose prerequisites have finished and whose core is idle start in
     rank order as long as the bus and power constraints hold; then time
     advances to the earliest finish.  Float addition is not associative,
     so power is summed in one fixed order: after each retire it is
     re-summed newest test first, and within an event it accumulates in
     start order. *)
  let run c s order =
    let n = Array.length c.cycles in
    Array.fill s.start 0 n (-1);
    Array.fill s.finish 0 n max_int;
    Array.fill s.started 0 n false;
    Array.fill s.busy 0 c.cores 0;
    let live = ref 0 and completed = ref 0 and t = ref 0 in
    while !completed < n do
      (* retire everything finishing at the current time *)
      let kept = ref 0 in
      for k = 0 to !live - 1 do
        let i = s.running.(k) in
        if s.finish.(i) > !t then begin
          s.running.(!kept) <- i;
          incr kept
        end
        else s.busy.(c.core.(i)) <- s.busy.(c.core.(i)) - 1
      done;
      live := !kept;
      let bus = ref 0 and power = ref 0.0 in
      for k = !live - 1 downto 0 do
        let i = s.running.(k) in
        bus := !bus + c.bus.(i);
        power := !power +. c.power.(i)
      done;
      (* start every eligible test that fits, in rank order *)
      for k = 0 to n - 1 do
        let i = order.(k) in
        if
          (not s.started.(i))
          && s.busy.(c.core.(i)) = 0
          && !bus + c.bus.(i) <= c.bus_cap
          && !power +. c.power.(i) <= c.power_cap
          && prerequisites_done c s i !t
        then begin
          s.started.(i) <- true;
          s.start.(i) <- !t;
          s.finish.(i) <- !t + c.cycles.(i);
          bus := !bus + c.bus.(i);
          power := !power +. c.power.(i);
          s.busy.(c.core.(i)) <- s.busy.(c.core.(i)) + 1;
          s.running.(!live) <- i;
          incr live
        end
      done;
      if !live = 0 then
        invalid_arg "Schedule.decode: stuck (prerequisite cycle or infeasible test)";
      let tmin = ref max_int in
      for k = 0 to !live - 1 do
        tmin := Int.min !tmin s.finish.(s.running.(k))
      done;
      t := !tmin;
      for k = 0 to !live - 1 do
        if s.finish.(s.running.(k)) = !tmin then incr completed
      done
    done;
    Array.fold_left Int.max 0 s.finish
end

(* Decode into fresh scratch and keep the placements. *)
let decode_order c order =
  let s = Compiled.scratch c in
  let makespan = Compiled.run c s order in
  { makespan;
    placements =
      Array.init (Array.length order) (fun i ->
          { start = s.Compiled.start.(i); finish = s.Compiled.finish.(i) }) }

(* The tests of a permutation ranking in rank order: its inverse. *)
let order_of_permutation rank =
  let order = Array.make (Array.length rank) 0 in
  Array.iteri (fun i r -> order.(r) <- i) rank;
  order

let decode problem rank =
  let n = Array.length problem.tests in
  if Array.length rank <> n then
    invalid_arg
      (Printf.sprintf "Schedule.decode: the rank has %d entries for %d tests"
         (Array.length rank) n);
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare rank.(a) rank.(b)) order;
  decode_order (Compiled.of_problem problem) order

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

(* ---- lower bound ---- *)

let lower_bound problem =
  let c = Compiled.of_problem problem in
  let open Compiled in
  let chain = Array.make c.cores 0 in
  let min_bus = Array.make c.cores max_int and min_power = Array.make c.cores infinity in
  let total = ref 0 and area = ref 0 and energy = ref 0.0 in
  Array.iteri
    (fun i cycles ->
      let k = c.core.(i) in
      chain.(k) <- chain.(k) + cycles;
      min_bus.(k) <- Int.min min_bus.(k) c.bus.(i);
      min_power.(k) <- Float.min min_power.(k) c.power.(i);
      total := !total + cycles;
      area := !area + (cycles * c.bus.(i));
      energy := !energy +. (float_of_int cycles *. c.power.(i)))
    c.cycles;
  (* The most tests that can run at once: one per core, so the largest set
     of cores whose cheapest tests fit both caps together.  Past 20 cores
     the enumeration is skipped for the weaker "every core at once".
     Float addition is not associative and the decoder adds power in its
     own order, so the power terms below give away a few ulps per term:
     no order fits a set of cores rejected here, or packs more energy
     under the cap than the energy term allows. *)
  let ulps terms = 2.0 *. float_of_int terms *. epsilon_float in
  let concurrency =
    if c.cores > 20 then c.cores
    else begin
      let best = ref 1 in
      for set = 1 to (1 lsl c.cores) - 1 do
        let size = ref 0 and bus = ref 0 and power = ref 0.0 in
        for k = 0 to c.cores - 1 do
          if set land (1 lsl k) <> 0 then begin
            incr size;
            bus := !bus + min_bus.(k);
            power := !power +. min_power.(k)
          end
        done;
        if !size > !best && !bus <= c.bus_cap && !power <= c.power_cap *. (1.0 +. ulps !size)
        then best := !size
      done;
      !best
    end
  in
  let ceil_div a b = (a + b - 1) / b in
  let n = Array.length c.cycles in
  List.fold_left Int.max 0
    [ Array.fold_left Int.max 0 chain;
      ceil_div !total concurrency;
      ceil_div !area c.bus_cap;
      int_of_float (Float.ceil (!energy /. c.power_cap *. (1.0 -. ulps (2 * n)))) ]

(* ---- simulated-annealing refinement ---- *)

type anneal_stats = { restarts : int; iterations : int; accepted : int; rejected : int }

(* One restart: perturb the greedy ranking with a few seed-dependent swaps,
   then a Metropolis walk over rank swaps with geometric cooling.  The walk
   keeps the tests in rank order next to the ranking, so a swap costs O(1)
   and every move decodes into the restart's own scratch.  Returns the best
   makespan seen, the ranking that achieved it, and the move counts
   (accumulated by the caller — workers never touch global sinks, keeping
   the fan-out deterministic). *)
let restart_walk c base_rank ~iters rng =
  let n = Array.length base_rank in
  let rank = Array.copy base_rank in
  let order = order_of_permutation rank in
  let swap i j =
    let tmp = rank.(i) in
    rank.(i) <- rank.(j);
    rank.(j) <- tmp;
    order.(rank.(i)) <- i;
    order.(rank.(j)) <- j
  in
  for _ = 1 to 1 + (n / 8) do
    swap (Prng.int rng n) (Prng.int rng n)
  done;
  let s = Compiled.scratch c in
  let current = ref (Compiled.run c s order) in
  let best = ref !current in
  let best_rank = Array.copy rank in
  let temperature = ref (Float.max 1.0 (float_of_int !current /. 10.0)) in
  (* cool to ~0.1% of the initial temperature over the walk *)
  let alpha = exp (log 1e-3 /. float_of_int (Int.max 1 iters)) in
  let accepted = ref 0 and rejected = ref 0 in
  for _ = 1 to iters do
    let i = Prng.int rng n and j = Prng.int rng n in
    if i <> j then begin
      swap i j;
      let candidate = Compiled.run c s order in
      let delta = candidate - !current in
      if delta <= 0 || Prng.float rng < exp (-.float_of_int delta /. !temperature)
      then begin
        incr accepted;
        current := candidate;
        if candidate < !best then begin
          best := candidate;
          Array.blit rank 0 best_rank 0 n
        end
      end
      else begin
        incr rejected;
        swap i j
      end
    end;
    temperature := !temperature *. alpha
  done;
  (!best, best_rank, !accepted, !rejected)

let anneal ?(restarts = 8) ?(iters = 400) ?(seed = 42) ?(pool = Pool.serial) problem =
  if restarts < 0 then invalid_arg "Schedule.anneal: restarts must be >= 0";
  if iters < 0 then invalid_arg "Schedule.anneal: iters must be >= 0";
  Obs.span "schedule.anneal"
    ~args:
      [ ("restarts", string_of_int restarts); ("iters", string_of_int iters);
        ("soc", problem.soc.Soc.name) ]
  @@ fun () ->
  let c = Compiled.of_problem problem in
  let base_rank = greedy_rank problem in
  let baseline = decode_order c (order_of_permutation base_rank) in
  (* every restart is one grain: per-restart streams come pre-split from
     the seed, so the fan-out is bit-identical at any pool size *)
  let walks =
    Pool.parallel_init_rng ~grain:1 pool ~rng:(Prng.create seed) restarts (fun rng _ ->
        restart_walk c base_rank ~iters rng)
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
  let result =
    if !best_rank == base_rank then baseline
    else decode_order c (order_of_permutation !best_rank)
  in
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
