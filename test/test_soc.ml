(* SOC model and scheduler tests: builder validation, the sorted SOC
   registry, decode feasibility on random rankings and random synthetic
   problems, the compiled decoder pinned to the list decoder it replaced,
   the lower bound under every decoded makespan, the
   annealed-never-worse-than-greedy contract, and bit-identity of the
   annealed schedule across pool sizes. *)

module Pool = Msoc_util.Pool
module Obs = Msoc_obs.Obs
module Trace = Msoc_obs.Trace
module Soc = Msoc_soc.Soc
module Schedule = Msoc_soc.Schedule

(* ---- builder validation ---- *)

let wrapper ?(bus_bits = 4) ?(chain_bits = 64) ?(fixture_cycles = 100) () =
  Soc.wrapper ~bus_bits ~chain_bits ~fixture_cycles

let core ?(name = "c0") ?(topology = "default") ?(w = wrapper ()) ?(power_mw = 50.0) () =
  Soc.core ~name ~topology ~wrapper:w ~power_mw

let expect_invalid label f =
  match f () with
  | (_ : Soc.t) -> Alcotest.failf "%s: expected Invalid_argument" label
  | exception Invalid_argument _ -> ()

let test_create_validation () =
  (* the happy path builds *)
  let ok = Soc.create ~name:"ok" ~bus_bits:16 ~power_budget_mw:200.0 [ core () ] in
  Alcotest.(check int) "core count" 1 (Soc.core_count ok);
  Alcotest.(check (list string)) "core names" [ "c0" ]
    (List.map (fun (c : Soc.core) -> c.Soc.name) ok.Soc.cores);
  expect_invalid "no cores" (fun () ->
      Soc.create ~name:"s" ~bus_bits:16 ~power_budget_mw:200.0 []);
  expect_invalid "duplicate core names" (fun () ->
      Soc.create ~name:"s" ~bus_bits:16 ~power_budget_mw:200.0 [ core (); core () ]);
  expect_invalid "unknown topology" (fun () ->
      Soc.create ~name:"s" ~bus_bits:16 ~power_budget_mw:200.0
        [ core ~topology:"no-such-topology" () ]);
  expect_invalid "wrapper bus wider than SOC bus" (fun () ->
      Soc.create ~name:"s" ~bus_bits:4 ~power_budget_mw:200.0
        [ core ~w:(wrapper ~bus_bits:8 ()) () ]);
  expect_invalid "zero-width wrapper bus" (fun () ->
      Soc.create ~name:"s" ~bus_bits:16 ~power_budget_mw:200.0
        [ core ~w:(wrapper ~bus_bits:0 ()) () ]);
  expect_invalid "empty wrapper chain" (fun () ->
      Soc.create ~name:"s" ~bus_bits:16 ~power_budget_mw:200.0
        [ core ~w:(wrapper ~chain_bits:0 ()) () ]);
  expect_invalid "negative fixture cost" (fun () ->
      Soc.create ~name:"s" ~bus_bits:16 ~power_budget_mw:200.0
        [ core ~w:(wrapper ~fixture_cycles:(-1) ()) () ]);
  expect_invalid "core power above budget" (fun () ->
      Soc.create ~name:"s" ~bus_bits:16 ~power_budget_mw:200.0
        [ core ~power_mw:250.0 () ]);
  expect_invalid "non-positive core power" (fun () ->
      Soc.create ~name:"s" ~bus_bits:16 ~power_budget_mw:200.0 [ core ~power_mw:0.0 () ])

let test_wrapper_load_cycles () =
  Alcotest.(check int) "exact division" 16
    (Soc.wrapper_load_cycles (wrapper ~bus_bits:4 ~chain_bits:64 ()));
  Alcotest.(check int) "rounds up" 17
    (Soc.wrapper_load_cycles (wrapper ~bus_bits:4 ~chain_bits:65 ()));
  Alcotest.(check int) "single line" 64
    (Soc.wrapper_load_cycles (wrapper ~bus_bits:1 ~chain_bits:64 ()))

let test_registry_sorted () =
  Alcotest.(check (list string)) "registry names sorted" [ "narrow"; "reference" ]
    Soc.names;
  Alcotest.(check (list string)) "summaries mirror the registry"
    Soc.names
    (List.map fst Soc.summaries);
  Alcotest.(check bool) "find hit" true (Soc.find "reference" <> None);
  Alcotest.(check bool) "find miss" true (Soc.find "bogus" = None);
  (* registry fixtures are valid by construction *)
  List.iter
    (fun name ->
      match Soc.find name with
      | None -> Alcotest.failf "registered SOC %s missing" name
      | Some soc -> Alcotest.(check int) "4 cores" 4 (Soc.core_count soc))
    Soc.names

(* ---- scheduler on the reference problem ---- *)

let reference_problem = lazy (Schedule.problem_of_soc (Soc.reference ()))

let check_ok problem label result =
  match Schedule.check problem result with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invalid schedule: %s" label e

let test_reference_schedule () =
  let problem = Lazy.force reference_problem in
  let greedy = Schedule.greedy problem in
  let annealed, stats = Schedule.anneal ~restarts:4 ~iters:200 problem in
  check_ok problem "greedy" greedy;
  check_ok problem "annealed" annealed;
  Alcotest.(check int) "46 tests derived" 46 (Array.length problem.Schedule.tests);
  Alcotest.(check int) "greedy makespan pinned" 348040 greedy.Schedule.makespan;
  Alcotest.(check bool) "annealed <= greedy" true
    (annealed.Schedule.makespan <= greedy.Schedule.makespan);
  Alcotest.(check int) "all restarts ran" 4 stats.Schedule.restarts;
  (* self-swap moves (i = j) are neither accepted nor rejected, so the
     counts bound restarts * iters from below without reaching it exactly *)
  Alcotest.(check bool) "moves accounted" true
    (stats.Schedule.accepted > 0
    && stats.Schedule.accepted + stats.Schedule.rejected
       <= stats.Schedule.restarts * stats.Schedule.iterations);
  (* a schedule can never beat the critical-path lower bound: the serial
     chain of any single core *)
  let per_core = Hashtbl.create 8 in
  Array.iter
    (fun (t : Schedule.test) ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt per_core t.Schedule.core) in
      Hashtbl.replace per_core t.Schedule.core (prev + t.Schedule.cycles))
    problem.Schedule.tests;
  Hashtbl.iter
    (fun _ serial ->
      Alcotest.(check bool) "makespan >= per-core serial time" true
        (annealed.Schedule.makespan >= serial))
    per_core

let test_derive_once_per_topology () =
  (* rx0 and rx1 share the default topology, so the reference SOC's four
     cores take three plan syntheses; the audit still has every core's
     records (the soc_audit.json golden pins them byte for byte) *)
  let soc = Soc.reference () in
  Obs.enable ();
  Obs.reset ();
  let syntheses =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        ignore (Schedule.problem_of_soc soc);
        match Trace.parse (Obs.jsonl ()) with
        | Ok t ->
          List.length
            (List.filter (fun sp -> String.equal sp.Trace.sp_name "plan.synthesize") t.Trace.spans)
        | Error e -> Alcotest.failf "the trace does not parse: %s" e)
  in
  Alcotest.(check int) "plan syntheses for 4 cores on 3 topologies" 3 syntheses

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.equal (String.sub s i m) sub || at (i + 1)) in
  at 0

let test_decode_rank_length () =
  (* a short rank used to fail on a bare array index and a long one was
     silently truncated; both now name the two lengths *)
  let problem = Lazy.force reference_problem in
  let n = Array.length problem.Schedule.tests in
  List.iter
    (fun length ->
      match Schedule.decode problem (Array.init length (fun i -> i)) with
      | _ -> Alcotest.failf "a rank of %d entries for %d tests must be rejected" length n
      | exception Invalid_argument msg ->
        List.iter
          (fun count ->
            if not (contains msg (string_of_int count)) then
              Alcotest.failf "%S does not name %d" msg count)
          [ length; n ])
    [ 0; n - 1; n + 1 ]

let test_lower_bound_certificates () =
  (* the reference SOC runs at most two cores at once (any three exceed
     200 mW), so half the serial sum bounds it; on the narrow SOC no two
     cores fit together and greedy's fully serial schedule is optimal *)
  let bound_and_greedy name =
    let problem = Schedule.problem_of_soc (Option.get (Soc.find name)) in
    (Schedule.lower_bound problem, (Schedule.greedy problem).Schedule.makespan)
  in
  Alcotest.(check (pair int int)) "reference: bound, greedy" (348014, 348040)
    (bound_and_greedy "reference");
  Alcotest.(check (pair int int)) "narrow: bound = greedy" (696028, 696028)
    (bound_and_greedy "narrow")

let test_lower_bound_summation_order () =
  (* 0.3 + 0.2 + 0.1 fits a cap of 0.6, while 0.1 + 0.2 + 0.3 rounds past
     it: the decoder runs all three cores at once when it starts them in
     that order, so the bound must count three concurrent cores.  At 7
     cycles a test, the energy over the cap also rounds just above 7. *)
  let core_test c power =
    { Schedule.core = Printf.sprintf "c%d" c; name = Printf.sprintf "c%d:t" c; cycles = 7;
      bus_bits = 1; power_mw = power; prereqs = [] }
  in
  let problem =
    { Schedule.soc =
        { Soc.name = "order"; bus_bits = 8; power_budget_mw = 0.6 -. 1e-9; ate_clock_hz = 1e6;
          cores = [] };
      tests = [| core_test 0 0.1; core_test 1 0.2; core_test 2 0.3 |] }
  in
  let schedule = Schedule.decode problem [| 2; 1; 0 |] in
  Alcotest.(check int) "all three run at once" 7 schedule.Schedule.makespan;
  Alcotest.(check int) "the bound admits it" 7 (Schedule.lower_bound problem)

(* ---- the list decoder, kept as the reference for the compiled one ---- *)

(* The scheduler's original decoder: the running tests in a list that is
   filtered and re-summed at every event, core occupancy by name, and the
   order sorted by rank on every call.  [Schedule.decode] must agree with
   it on the makespan and on every placement, float summation order
   included. *)
let reference_decode (problem : Schedule.problem) rank =
  let tests = problem.Schedule.tests in
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
        bus := !bus + tests.(i).Schedule.bus_bits;
        power := !power +. tests.(i).Schedule.power_mw)
      !running;
    let core_busy c =
      List.exists (fun i -> String.equal tests.(i).Schedule.core c) !running
    in
    (* start every eligible test that fits, in rank order *)
    Array.iter
      (fun i ->
        let test = tests.(i) in
        if
          (not started.(i))
          && List.for_all (fun p -> started.(p) && finish.(p) <= !t) test.Schedule.prereqs
          && (not (core_busy test.Schedule.core))
          && !bus + test.Schedule.bus_bits <= problem.Schedule.soc.Soc.bus_bits
          && !power +. test.Schedule.power_mw
             <= problem.Schedule.soc.Soc.power_budget_mw +. 1e-9
        then begin
          started.(i) <- true;
          start.(i) <- !t;
          finish.(i) <- !t + test.Schedule.cycles;
          bus := !bus + test.Schedule.bus_bits;
          power := !power +. test.Schedule.power_mw;
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
  { Schedule.makespan;
    placements = Array.init n (fun i -> { Schedule.start = start.(i); finish = finish.(i) }) }

(* ---- QCheck: random rankings and random synthetic problems ---- *)

(* Synthetic problems bypass the validated builder on purpose: the record
   types are concrete, so the generator can produce bus/power shapes the
   shipped fixtures never hit.  Prerequisites chain within each core,
   matching what problem_of_soc derives. *)
let arb_problem =
  let gen =
    QCheck.Gen.(
      int_range 4 16 >>= fun bus_bits ->
      int_range 50 200 >>= fun budget ->
      int_range 1 4 >>= fun n_cores ->
      int_range 1 12 >>= fun n_tests ->
      let power_budget_mw = float_of_int budget in
      let core_of i =
        Soc.core
          ~name:(Printf.sprintf "c%d" i)
          ~topology:"default"
          ~wrapper:(Soc.wrapper ~bus_bits:1 ~chain_bits:1 ~fixture_cycles:0)
          ~power_mw:1.0
      in
      let soc =
        { Soc.name = "random"; bus_bits; power_budget_mw; ate_clock_hz = 1e6;
          cores = List.init n_cores core_of }
      in
      let last_of_core = Hashtbl.create 4 in
      let gen_test i =
        int_range 1 500 >>= fun cycles ->
        int_range 1 bus_bits >>= fun test_bus ->
        int_range 1 budget >>= fun power ->
        let c = i mod n_cores in
        let prereqs =
          match Hashtbl.find_opt last_of_core c with
          | Some p -> [ p ]
          | None -> []
        in
        Hashtbl.replace last_of_core c i;
        return
          { Schedule.core = Printf.sprintf "c%d" c;
            name = Printf.sprintf "c%d:t%d" c i;
            cycles;
            bus_bits = test_bus;
            power_mw = float_of_int power;
            prereqs }
      in
      let rec tests i acc =
        if i >= n_tests then return (Array.of_list (List.rev acc))
        else gen_test i >>= fun t -> tests (i + 1) (t :: acc)
      in
      tests 0 [] >>= fun tests -> return { Schedule.soc; tests })
  in
  let print p =
    Printf.sprintf "{bus=%d power=%.0f tests=[%s]}" p.Schedule.soc.Soc.bus_bits
      p.Schedule.soc.Soc.power_budget_mw
      (String.concat "; "
         (Array.to_list
            (Array.map
               (fun (t : Schedule.test) ->
                 Printf.sprintf "%s %dcy %db %.0fmW [%s]" t.Schedule.name
                   t.Schedule.cycles t.Schedule.bus_bits t.Schedule.power_mw
                   (String.concat "," (List.map string_of_int t.Schedule.prereqs)))
               p.Schedule.tests)))
  in
  QCheck.make ~print gen

let prop_random_ranking_decodes =
  QCheck.Test.make ~name:"any ranking decodes to a feasible schedule" ~count:100
    (QCheck.pair arb_problem (QCheck.array_of_size (QCheck.Gen.return 32) QCheck.int))
    (fun (problem, noise) ->
      let n = Array.length problem.Schedule.tests in
      let rank = Array.init n (fun i -> noise.(i mod Array.length noise)) in
      Schedule.check problem (Schedule.decode problem rank) = Ok ())

let prop_greedy_feasible =
  QCheck.Test.make ~name:"greedy is feasible on random problems" ~count:100
    arb_problem
    (fun problem -> Schedule.check problem (Schedule.greedy problem) = Ok ())

let prop_annealed_never_worse =
  QCheck.Test.make ~name:"annealed <= greedy on random problems" ~count:40
    (QCheck.pair arb_problem (QCheck.int_range 1 10000))
    (fun (problem, seed) ->
      let greedy = Schedule.greedy problem in
      let annealed, _ = Schedule.anneal ~restarts:2 ~iters:60 ~seed problem in
      Schedule.check problem annealed = Ok ()
      && annealed.Schedule.makespan <= greedy.Schedule.makespan)

(* Problems for pinning the compiled decoder: up to 6 cores and 60 tests
   in any core order, and prerequisites drawn from any earlier tests of
   the same core.  Powers are tenths of a mW, which binary floats cannot
   hold exactly, so sums of the same tests differ in their last bits with
   the order they are added in.  The budget sits 1e-9 mW under a whole
   number of tenths, so the decoder's cap lands within an ulp of loads it
   reaches and the summation order decides ties.  Every test fits alone,
   so no ranking gets stuck.  Half the rankings are permutations, half
   are small ints full of ties. *)
let arb_ranked_problem =
  let gen st =
    let int lo hi = lo + Random.State.int st (hi - lo + 1) in
    let n_cores = int 1 6 and n = int 0 60 and bus_bits = int 4 24 in
    let earlier = Array.make n_cores [] in
    let tests =
      Array.init n (fun i ->
          let c = int 0 (n_cores - 1) in
          let prereqs = List.filter (fun _ -> Random.State.int st 3 = 0) earlier.(c) in
          earlier.(c) <- i :: earlier.(c);
          { Schedule.core = Printf.sprintf "c%d" c;
            name = Printf.sprintf "c%d:t%d" c i;
            cycles = int 1 500;
            bus_bits = int 1 (Int.min 4 bus_bits);
            power_mw = float_of_int (int 1 9) /. 10.0;
            prereqs = List.rev prereqs })
    in
    let power_budget_mw = float_of_int (int 10 30) /. 10.0 -. 1e-9 in
    let soc =
      { Soc.name = "random"; bus_bits; power_budget_mw; ate_clock_hz = 1e6;
        cores =
          List.init n_cores (fun c ->
              Soc.core ~name:(Printf.sprintf "c%d" c) ~topology:"default"
                ~wrapper:(Soc.wrapper ~bus_bits:1 ~chain_bits:1 ~fixture_cycles:0)
                ~power_mw:1.0) }
    in
    let rank =
      if Random.State.bool st then begin
        let rank = Array.init n (fun i -> i) in
        QCheck.Gen.shuffle_a rank st;
        rank
      end
      else Array.init n (fun _ -> int (-3) 3)
    in
    ({ Schedule.soc; tests }, rank)
  in
  let print (p, rank) =
    Printf.sprintf "{bus=%d power=%.17g tests=[%s] rank=[%s]}" p.Schedule.soc.Soc.bus_bits
      p.Schedule.soc.Soc.power_budget_mw
      (String.concat "; "
         (Array.to_list
            (Array.map
               (fun (t : Schedule.test) ->
                 Printf.sprintf "%s %dcy %db %.1fmW [%s]" t.Schedule.name t.Schedule.cycles
                   t.Schedule.bus_bits t.Schedule.power_mw
                   (String.concat "," (List.map string_of_int t.Schedule.prereqs)))
               p.Schedule.tests)))
      (String.concat "," (Array.to_list (Array.map string_of_int rank)))
  in
  QCheck.make ~print gen

let prop_compiled_matches_reference =
  QCheck.Test.make ~name:"compiled decoder = list decoder" ~count:400 arb_ranked_problem
    (fun (problem, rank) -> Schedule.decode problem rank = reference_decode problem rank)

let prop_makespan_above_lower_bound =
  QCheck.Test.make ~name:"every decoded makespan >= lower_bound" ~count:400
    arb_ranked_problem
    (fun (problem, rank) ->
      (Schedule.decode problem rank).Schedule.makespan >= Schedule.lower_bound problem)

(* ---- pool bit-identity ---- *)

let test_pool_bit_identity () =
  let problem = Lazy.force reference_problem in
  let anneal pool = Schedule.anneal ~restarts:8 ~iters:120 ?pool problem in
  let serial_result, serial_stats = anneal None in
  check_ok problem "serial" serial_result;
  List.iter
    (fun size ->
      let pooled_result, pooled_stats =
        Pool.with_pool ~size (fun pool -> anneal (Some pool))
      in
      let label = Printf.sprintf "pool size %d" size in
      Alcotest.(check int) (label ^ ": makespan") serial_result.Schedule.makespan
        pooled_result.Schedule.makespan;
      Alcotest.(check bool) (label ^ ": placements bit-identical") true
        (serial_result.Schedule.placements = pooled_result.Schedule.placements);
      Alcotest.(check bool) (label ^ ": stats identical") true
        (serial_stats = pooled_stats))
    [ 1; 2; 4; 8 ]

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "msoc_soc"
    [ ( "soc-model",
        [ Alcotest.test_case "builder validation" `Quick test_create_validation;
          Alcotest.test_case "wrapper load cycles" `Quick test_wrapper_load_cycles;
          Alcotest.test_case "registry sorted" `Quick test_registry_sorted ] );
      ( "schedule",
        [ Alcotest.test_case "reference schedule" `Quick test_reference_schedule;
          Alcotest.test_case "derive once per topology" `Quick test_derive_once_per_topology;
          Alcotest.test_case "decode rejects a rank of the wrong length" `Quick
            test_decode_rank_length;
          Alcotest.test_case "lower bound certificates" `Quick
            test_lower_bound_certificates;
          Alcotest.test_case "lower bound under any summation order" `Quick
            test_lower_bound_summation_order;
          Alcotest.test_case "pool bit-identity" `Quick test_pool_bit_identity ] );
      ( "schedule-properties",
        qcheck
          [ prop_random_ranking_decodes; prop_greedy_feasible;
            prop_annealed_never_worse; prop_compiled_matches_reference;
            prop_makespan_above_lower_bound ] ) ]
