(* Unit and property tests for msoc_netlist: IR, simulation, arithmetic
   generators, fault model, fault simulation, FIR datapath. *)

open Msoc_netlist
module B = Netlist.Builder
module Prng = Msoc_util.Prng
module Pool = Msoc_util.Pool
module Obs = Msoc_obs.Obs

(* ---- helpers ---- *)

let eval_single circuit ~set =
  (* Evaluate with single-lane drives given as (node, bool); returns a
     lookup on lane 0. *)
  let sim = Logic_sim.create circuit in
  List.iter (fun (node, v) -> Logic_sim.drive_node sim node (if v then -1 else 0)) set;
  Logic_sim.eval sim;
  fun node -> Logic_sim.value sim node land 1 = 1

(* ---- Netlist IR ---- *)

let test_gate_truth_tables () =
  let b = B.create () in
  let a = B.input b "a" and c = B.input b "c" in
  let gates =
    [ (Netlist.And2, fun x y -> x && y);
      (Netlist.Or2, fun x y -> x || y);
      (Netlist.Nand2, fun x y -> not (x && y));
      (Netlist.Nor2, fun x y -> not (x || y));
      (Netlist.Xor2, fun x y -> x <> y);
      (Netlist.Xnor2, fun x y -> x = y) ]
  in
  let nodes = List.map (fun (kind, _) -> B.gate2 b kind a c) gates in
  let inv = B.not_ b a and buffer = B.buf b a in
  B.output b "all" (Array.of_list (inv :: buffer :: nodes));
  let circuit = Netlist.freeze b in
  List.iter
    (fun (x, y) ->
      let read = eval_single circuit ~set:[ (a, x); (c, y) ] in
      List.iteri
        (fun i (kind, semantics) ->
          ignore kind;
          if read (List.nth nodes i) <> semantics x y then
            Alcotest.failf "gate %d wrong at (%b,%b)" i x y)
        gates;
      if read inv <> not x then Alcotest.fail "not gate";
      if read buffer <> x then Alcotest.fail "buf gate")
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_constants () =
  let b = B.create () in
  let zero = B.const b false and one = B.const b true in
  B.output b "consts" [| zero; one |];
  let circuit = Netlist.freeze b in
  let read = eval_single circuit ~set:[] in
  Alcotest.(check bool) "const0" false (read zero);
  Alcotest.(check bool) "const1" true (read one)

let test_dff_delays_one_cycle () =
  let b = B.create () in
  let d = B.input b "d" in
  let q = B.dff b d in
  B.output b "q" [| q |];
  let circuit = Netlist.freeze b in
  let sim = Logic_sim.create circuit in
  (* Cycle 0: drive 1; q should still be 0 (initial state). *)
  Logic_sim.drive_node sim d (-1);
  Logic_sim.eval sim;
  Alcotest.(check int) "initial q" 0 (Logic_sim.value sim q land 1);
  Logic_sim.tick sim;
  Logic_sim.drive_node sim d 0;
  Logic_sim.eval sim;
  Alcotest.(check int) "q sees previous d" 1 (Logic_sim.value sim q land 1);
  Logic_sim.tick sim;
  Logic_sim.eval sim;
  Alcotest.(check int) "q follows" 0 (Logic_sim.value sim q land 1)

let test_combinational_cycle_rejected () =
  (* A feedback loop without a DFF must be rejected. The builder only
     references existing nodes, so build the loop through a DFF-free
     back-edge: create with forward refs is impossible, so check the other
     guarantee instead: gate2 on an undefined node raises. *)
  let b = B.create () in
  let a = B.input b "a" in
  Alcotest.check_raises "dangling reference"
    (Invalid_argument "Netlist.Builder: gate2 references undefined node 99") (fun () ->
      ignore (B.gate2 b Netlist.And2 a 99))

let test_eval_order_topological () =
  let b = B.create () in
  let a = B.input b "a" in
  let x = B.not_ b a in
  let y = B.gate2 b Netlist.And2 x a in
  let z = B.gate2 b Netlist.Or2 y x in
  B.output b "z" [| z |];
  let circuit = Netlist.freeze b in
  let order = Netlist.eval_order circuit in
  let position = Hashtbl.create 8 in
  Array.iteri (fun i node -> Hashtbl.replace position node i) order;
  let pos n = Hashtbl.find position n in
  Alcotest.(check bool) "x before y" true (pos x < pos y);
  Alcotest.(check bool) "y before z" true (pos y < pos z)

let test_fanout_counts () =
  let b = B.create () in
  let a = B.input b "a" in
  let x = B.not_ b a in
  let _ = B.gate2 b Netlist.And2 x x in
  B.output b "o" [| x |];
  let circuit = Netlist.freeze b in
  Alcotest.(check int) "a feeds not" 1 (Netlist.fanout_count circuit a);
  Alcotest.(check int) "x feeds both and inputs" 2 (Netlist.fanout_count circuit x)

let test_gate_counts_and_stats () =
  let b = B.create () in
  let a = B.input b "a" in
  let x = B.not_ b a in
  let y = B.dff b x in
  B.output b "y" [| y |];
  let circuit = Netlist.freeze b in
  let counts = Netlist.gate_counts circuit in
  Alcotest.(check int) "one input" 1 (List.assoc Netlist.Input counts);
  Alcotest.(check int) "one not" 1 (List.assoc Netlist.Not counts);
  Alcotest.(check int) "one dff" 1 (List.assoc Netlist.Dff counts);
  let stats = Format.asprintf "%a" Netlist.pp_stats circuit in
  Alcotest.(check bool) "stats nonempty" true (String.length stats > 0)

(* ---- Arithmetic generators ---- *)

let make_adder_circuit width =
  (* equal-width operands: the sign extension adds nothing, so this is the
     bare ripple-carry adder, mod 2^width *)
  let b = B.create () in
  let x = Array.init width (fun i -> B.input b (Printf.sprintf "x%d" i)) in
  let y = Array.init width (fun i -> B.input b (Printf.sprintf "y%d" i)) in
  let sum = Arith.add_signed b x y ~width in
  B.output b "x" x;
  B.output b "y" y;
  B.output b "sum" sum;
  Netlist.freeze b

let test_ripple_adder_exhaustive () =
  let width = 4 in
  let circuit = make_adder_circuit width in
  let sim = Logic_sim.create circuit in
  let xbus = Netlist.find_output circuit "x" in
  let ybus = Netlist.find_output circuit "y" in
  let sumbus = Netlist.find_output circuit "sum" in
  for x = 0 to 15 do
    for y = 0 to 15 do
      Logic_sim.drive_bus sim xbus x;
      Logic_sim.drive_bus sim ybus y;
      Logic_sim.eval sim;
      let raw = ref 0 in
      Array.iteri
        (fun i node -> raw := !raw lor ((Logic_sim.value sim node land 1) lsl i))
        sumbus;
      if !raw <> (x + y) land 15 then Alcotest.failf "adder %d+%d gave %d" x y !raw
    done
  done

let scale_circuit ~coeff ~width_in ~width_out =
  let b = B.create () in
  let x = Array.init width_in (fun i -> B.input b (Printf.sprintf "x%d" i)) in
  let p = Arith.scale_const b x ~coeff ~width:width_out in
  B.output b "x" x;
  B.output b "p" p;
  Netlist.freeze b

(* [coeff * x] as the scale network computes it, for each [x] *)
let scaled ~coeff ~width_in xs =
  let width_out = Arith.width_for_product ~input_width:width_in ~coeff in
  let circuit = scale_circuit ~coeff ~width_in ~width_out in
  let sim = Logic_sim.create circuit in
  let xbus = Netlist.find_output circuit "x" in
  let pbus = Netlist.find_output circuit "p" in
  ( circuit,
    width_out,
    List.map
      (fun v ->
        Logic_sim.drive_bus sim xbus v;
        Logic_sim.eval sim;
        Logic_sim.read_bus_lane sim pbus ~lane:0)
      xs )

let check_scale coeff =
  let xs = [ 0; 1; -1; 5; -5; 17; -17; 31; -32 ] in
  let _, _, products = scaled ~coeff ~width_in:6 xs in
  List.for_all2 (fun v p -> p = coeff * v) xs products

let test_scale_const_known_coeffs () =
  List.iter
    (fun coeff ->
      if not (check_scale coeff) then Alcotest.failf "scale by %d wrong" coeff)
    [ 0; 1; -1; 2; 3; -3; 7; -7; 23; 100; -100; 127; -128 ]

let prop_scale_const_random =
  QCheck.Test.make ~name:"CSD constant multiplier matches integer multiply" ~count:60
    (QCheck.int_range (-200) 200) (fun coeff -> check_scale coeff)

(* The reference signed-digit form, LSB first: the non-adjacent form, the
   unique one with no two adjacent nonzero digits and the fewest nonzero
   digits of any. *)
let naf v =
  let rec loop c acc =
    if c = 0 then List.rev acc
    else if c land 1 = 0 then loop (c asr 1) (0 :: acc)
    else begin
      let digit = 2 - (c land 3) in
      loop ((c - digit) asr 1) (digit :: acc)
    end
  in
  loop v []

let prop_csd_properties =
  (* the network's digits sum to the constant (it multiplies exactly) and
     are non-adjacent: it spends one ripple adder (one OR per bit) per
     nonzero digit after the first, plus a negation when the first is -1,
     which only the non-adjacent form achieves *)
  QCheck.Test.make ~name:"CSD digits sum to value and are non-adjacent" ~count:500
    (QCheck.int_range (-100000) 100000) (fun v ->
      let xs = [ -4; -3; -1; 0; 1; 3 ] in
      let circuit, width_out, products = scaled ~coeff:v ~width_in:3 xs in
      let digits = List.filter (fun d -> d <> 0) (naf v) in
      let adders =
        match digits with
        | [] -> 0
        | first :: _ -> List.length digits - 1 + if first < 0 then 1 else 0
      in
      let ors = Option.value ~default:0 (List.assoc_opt Netlist.Or2 (Netlist.gate_counts circuit)) in
      List.for_all2 (fun x p -> p = v * x) xs products && ors = adders * width_out)

let test_width_helpers () =
  Alcotest.(check int) "product width zero coeff" 1
    (Arith.width_for_product ~input_width:8 ~coeff:0);
  (* coeff 3, 4-bit input: max |3 * -8| = 24 -> 6 bits magnitude+sign *)
  Alcotest.(check int) "product width" 6 (Arith.width_for_product ~input_width:4 ~coeff:3)

let test_negate_and_sub () =
  (* a -1 constant is one negation: zero minus the operand *)
  let xs = [ 0; 1; -1; 15; -16 ] in
  let _, width_out, products = scaled ~coeff:(-1) ~width_in:5 xs in
  Alcotest.(check int) "result width" 6 width_out;
  List.iter2 (fun v p -> Alcotest.(check int) "negate" (-v) p) xs products

let test_const_bus () =
  (* a zero constant is a constant-zero bus, whatever the input *)
  let circuit, _, products = scaled ~coeff:0 ~width_in:8 [ -37; 0; 100 ] in
  Alcotest.(check (list int)) "constant bus value" [ 0; 0; 0 ] products;
  Alcotest.(check bool) "no gates beyond the inputs and constants" true
    (List.for_all
       (fun (kind, n) ->
         n = 0 || kind = Netlist.Input || kind = Netlist.Const0 || kind = Netlist.Const1)
       (Netlist.gate_counts circuit))

(* ---- Faults ---- *)

let test_fault_universe_size () =
  let b = B.create () in
  let a = B.input b "a" in
  let x = B.not_ b a in
  let k = B.const b true in
  let y = B.gate2 b Netlist.And2 x k in
  B.output b "y" [| y |];
  let circuit = Netlist.freeze b in
  (* const excluded: faults on a, x, y only *)
  Alcotest.(check int) "universe" 6 (Array.length (Fault.universe circuit))

let test_fault_collapse_not_chain () =
  let b = B.create () in
  let a = B.input b "a" in
  let x = B.not_ b a in
  let y = B.not_ b x in
  B.output b "y" [| y |];
  let circuit = Netlist.freeze b in
  let collapsed = Fault.collapse circuit (Fault.universe circuit) in
  (* a, x, y each have 2 faults = 6; x/y collapse onto a -> 2 classes *)
  Alcotest.(check int) "collapsed classes" 2 (Array.length collapsed);
  Alcotest.(check bool) "both represented on the driver" true
    (Array.for_all (fun f -> f.Fault.node = a) collapsed);
  Alcotest.(check bool) "both polarities kept" true
    (Array.exists (fun f -> f.Fault.stuck) collapsed
    && Array.exists (fun f -> not f.Fault.stuck) collapsed)

let test_fault_no_collapse_on_fanout () =
  let b = B.create () in
  let a = B.input b "a" in
  let x = B.not_ b a in
  let y = B.buf b a in
  (* a has fanout 2 -> no collapsing through either gate *)
  B.output b "o" [| x; y |];
  let circuit = Netlist.freeze b in
  Alcotest.(check int) "no collapse" 6
    (Array.length (Fault.collapse circuit (Fault.universe circuit)))

let test_injected_fault_behaviour () =
  let b = B.create () in
  let a = B.input b "a" in
  let x = B.buf b a in
  B.output b "x" [| x |];
  let circuit = Netlist.freeze b in
  let sim = Logic_sim.create circuit in
  Logic_sim.inject sim ~node:x ~lane:1 ~stuck:true;
  Logic_sim.inject sim ~node:x ~lane:2 ~stuck:false;
  Logic_sim.drive_node sim a 0;
  Logic_sim.eval sim;
  let v = Logic_sim.value sim x in
  Alcotest.(check int) "lane0 good" 0 (v land 1);
  Alcotest.(check int) "lane1 sa1" 1 ((v lsr 1) land 1);
  Alcotest.(check int) "lane2 sa0" 0 ((v lsr 2) land 1);
  Logic_sim.drive_node sim a (-1);
  Logic_sim.eval sim;
  let v = Logic_sim.value sim x in
  Alcotest.(check int) "lane0 follows the input" 1 (v land 1);
  Alcotest.(check int) "lane2 stays stuck at 0" 0 ((v lsr 2) land 1)

(* ---- Fault simulation ---- *)

let small_fir () =
  let design = Msoc_dsp.Fir.lowpass ~taps:5 ~cutoff:0.2 () in
  let codes, scale = Msoc_dsp.Fir.quantize design.Msoc_dsp.Fir.taps ~bits:6 in
  Fir_netlist.create ~coeffs:codes ~width_in:6 ~scale ()

let pool_sizes = [ 1; 2; 4; 8 ]

(* The reference every observed stream is checked against: a dedicated
   full-machine simulation with the single fault in lane 0 ([None]: the
   fault-free machine). *)
let single_fault_stream circuit ~output ~drive ~samples fault =
  let sim = Logic_sim.create circuit in
  Option.iter
    (fun (f : Fault.t) -> Logic_sim.inject sim ~node:f.Fault.node ~lane:0 ~stuck:f.Fault.stuck)
    fault;
  let bus = Netlist.find_output circuit output in
  Array.init samples (fun cycle ->
      drive sim cycle;
      Logic_sim.eval sim;
      let y = Logic_sim.read_bus_lane sim bus ~lane:0 in
      Logic_sim.tick sim;
      y)

(* At every pool size, the observer's good stream and every fault stream
   equal the single-fault reference, and each callback sees its own fault. *)
let check_observer circuit ~output ~drive ~samples faults =
  let good = single_fault_stream circuit ~output ~drive ~samples None in
  let expected =
    Array.map (fun f -> single_fault_stream circuit ~output ~drive ~samples (Some f)) faults
  in
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let observed_good, streams =
            Fault_sim.observe ~pool circuit ~output ~drive ~samples ~faults
              ~on_fault:(fun i fault stream ->
                if fault <> faults.(i) then
                  Alcotest.failf "size %d: callback %d got the wrong fault" size i;
                Array.copy stream)
          in
          Alcotest.(check (array int)) (Printf.sprintf "size %d good stream" size) good
            observed_good;
          Array.iteri
            (fun i stream ->
              if stream <> expected.(i) then
                Alcotest.failf "size %d: stream of fault %d (%a) differs from the reference"
                  size i Fault.pp faults.(i))
            streams))
    pool_sizes

let fir_drive fir stimulus sim cycle = Fir_netlist.drive fir sim stimulus.(cycle)

(* [f ()] with telemetry on, and the counters it left. *)
let with_counters f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let v = f () in
      let trace = Result.get_ok (Msoc_obs.Trace.parse (Obs.jsonl ())) in
      (v, trace.Msoc_obs.Trace.counters))

let counter counters name =
  int_of_float (Option.value ~default:0.0 (List.assoc_opt name counters))

let test_parallel_fault_sim_matches_serial () =
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let g = Prng.create 11 in
  let stimulus = Array.init 40 (fun _ -> Prng.int g 63 - 31) in
  let faults = Fault.collapse circuit (Fault.universe circuit) in
  check_observer circuit ~output:"y" ~drive:(fir_drive fir stimulus) ~samples:40 faults

(* The work counters are exact and do not depend on the pool: on the
   paper's 13-tap filter every full adder runs as one instruction, and
   the instructions run (program length times words evaluated, summed
   over the simulated faults) read the same at every pool size, for full
   streams and for detection, which stops at a fault's first differing
   word. *)
let test_work_counters_pool_invariant () =
  let design = Msoc_dsp.Fir.lowpass ~taps:13 ~cutoff:0.12 () in
  let codes, scale = Msoc_dsp.Fir.quantize design.Msoc_dsp.Fir.taps ~bits:8 in
  let fir = Fir_netlist.create ~coeffs:codes ~width_in:12 ~scale () in
  let circuit = fir.Fir_netlist.circuit in
  let g = Prng.create 13 in
  let samples = 256 in
  let stimulus = Array.init samples (fun _ -> Prng.int g 4095 - 2047) in
  let drive = fir_drive fir stimulus in
  let faults = Fault.collapse circuit (Fault.universe circuit) in
  let work size =
    Pool.with_pool ~size (fun pool ->
        let count run =
          let (), counters = with_counters (fun () -> ignore (run ())) in
          (counter counters "fault_sim.full_adders", counter counters "fault_sim.instructions")
        in
        let streams =
          count (fun () ->
              Fault_sim.observe ~pool circuit ~output:"y" ~drive ~samples ~faults
                ~on_fault:(fun _ _ _ -> ()))
        in
        let detection =
          count (fun () -> Fault_sim.detect_cycles ~pool circuit ~output:"y" ~drive ~samples ~faults)
        in
        (streams, detection))
  in
  let ((adders, instructions), (adders', instructions')) as serial = work 1 in
  Alcotest.(check (pair int int)) "585 full adders per run" (585, 585) (adders, adders');
  Alcotest.(check bool) "detection stops early" true (instructions' < instructions);
  List.iter
    (fun size ->
      Alcotest.(check (pair (pair int int) (pair int int)))
        (Printf.sprintf "size %d counters" size) serial (work size))
    [ 2; 4; 8 ]

let test_observer_node_kinds () =
  (* Faults on DFF, input and output-bus nodes of the filter (uncollapsed,
     both polarities), more of them than one pool grain. *)
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let bus = Fir_netlist.output_bus fir in
  let g = Prng.create 31 in
  let stimulus = Array.init 48 (fun _ -> Prng.int g 63 - 31) in
  let faults =
    Array.of_list
      (List.filter
         (fun (f : Fault.t) ->
           match Netlist.kind circuit f.Fault.node with
           | Netlist.Dff | Netlist.Input -> true
           | _ -> Array.mem f.Fault.node bus)
         (Array.to_list (Fault.universe circuit)))
  in
  Alcotest.(check bool) "more than 63 faults, not a multiple of 63" true
    (Array.length faults > 63 && Array.length faults mod 63 <> 0);
  check_observer circuit ~output:"y" ~drive:(fir_drive fir stimulus) ~samples:48 faults

let test_observer_unobservable_faults () =
  (* A sequential circuit whose output bus holds an input, a DFF and gates
     (the top gate drives the sign bit), beside dead logic that never
     reaches it: a dead gate and a DFF it feeds. *)
  let b = B.create () in
  let a0 = B.input b "a0" and a1 = B.input b "a1" in
  let q0_d = B.gate2 b Netlist.Xor2 a0 a1 in
  let q0 = B.dff b q0_d in
  let q1 = B.dff b (B.gate2 b Netlist.And2 q0 a1) in
  let g = B.gate2 b Netlist.Or2 a0 q0 in
  let top = B.gate2 b Netlist.Xor2 g q1 in
  let dead = B.gate2 b Netlist.Nand2 g a1 in
  let _dead_q = B.dff b dead in
  B.output b "y" [| a1; q0; g; top |];
  let circuit = Netlist.freeze b in
  let faults = Fault.universe circuit in
  let obsv = Cone.observable circuit ~output:(Netlist.find_output circuit "y") in
  Alcotest.(check bool) "some faults are unobservable" true
    (Array.exists (fun (f : Fault.t) -> not obsv.(f.Fault.node)) faults);
  let g = Prng.create 5 in
  let bits = Array.init 64 (fun _ -> (Prng.int g 2, Prng.int g 2)) in
  let drive sim cycle =
    let x0, x1 = bits.(cycle) in
    Logic_sim.drive_node sim a0 (-x0);
    Logic_sim.drive_node sim a1 (-x1)
  in
  check_observer circuit ~output:"y" ~drive ~samples:64 faults;
  (* unobservable faults are handed the good stream itself *)
  let good, shared =
    Fault_sim.observe circuit ~output:"y" ~drive ~samples:64 ~faults
      ~on_fault:(fun _ _ stream -> stream)
  in
  Array.iteri
    (fun i (f : Fault.t) ->
      if not obsv.(f.Fault.node) && shared.(i) != good then
        Alcotest.failf "unobservable fault %d was simulated" i)
    faults

let test_good_stream_matches_response () =
  let fir = small_fir () in
  let g = Prng.create 12 in
  let stimulus = Array.init 64 (fun _ -> Prng.int g 63 - 31) in
  let faults = Array.sub (Fault.universe fir.Fir_netlist.circuit) 0 10 in
  let good, _ =
    Fault_sim.observe fir.Fir_netlist.circuit ~output:"y" ~drive:(fir_drive fir stimulus)
      ~samples:64 ~faults ~on_fault:(fun _ _ _ -> ())
  in
  Alcotest.(check (array int)) "good stream = behavioural response"
    (Fir_netlist.response fir stimulus) good

let test_detect_exact_matches_streams () =
  (* A stream differs from the good stream exactly when [detect_exact]
     flags its fault. *)
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let g = Prng.create 13 in
  let stimulus = Array.init 50 (fun _ -> Prng.int g 63 - 31) in
  let faults = Fault.collapse circuit (Fault.universe circuit) in
  let drive = fir_drive fir stimulus in
  let good = Fir_netlist.response fir stimulus in
  let detected = Fault_sim.detect_exact circuit ~output:"y" ~drive ~samples:50 ~faults in
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let _, differs =
            Fault_sim.observe ~pool circuit ~output:"y" ~drive ~samples:50 ~faults
              ~on_fault:(fun _ _ stream -> stream <> good)
          in
          Alcotest.(check (array bool))
            (Printf.sprintf "size %d: differs = detect_exact" size)
            detected differs))
    pool_sizes

let test_observer_fault_order () =
  (* One callback per class of equivalent faults, on its representative
     (the class's first member) and never on another member; each member's
     result is its representative's, and the results come back in fault
     order at every pool size, whatever order the workers ran the faults
     in. *)
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let g = Prng.create 14 in
  let stimulus = Array.init 32 (fun _ -> Prng.int g 63 - 31) in
  let faults = Array.sub (Fault.collapse circuit (Fault.universe circuit)) 0 200 in
  let rep = Fault.classes circuit ~output:(Fir_netlist.output_bus fir) faults in
  Array.iteri
    (fun i k ->
      if k > i || rep.(k) <> k then Alcotest.failf "fault %d: %d is not a first member" i k)
    rep;
  Alcotest.(check bool) "some faults share a class" true
    (Array.exists Fun.id (Array.mapi (fun i k -> k <> i) rep));
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          let calls = Array.init (Array.length faults) (fun _ -> Atomic.make 0) in
          let _, results =
            Fault_sim.observe ~pool circuit ~output:"y" ~drive:(fir_drive fir stimulus)
              ~samples:32 ~faults
              ~on_fault:(fun i fault _ ->
                Atomic.incr calls.(i);
                (i, fault))
          in
          Array.iteri
            (fun i (j, fault) ->
              let k = rep.(i) in
              if j <> k || fault <> faults.(k) then
                Alcotest.failf "size %d: result %d is not its representative %d's" size i k;
              let expected = if k = i then 1 else 0 in
              if Atomic.get calls.(i) <> expected then
                Alcotest.failf "size %d: fault %d called back %d times, not %d" size i
                  (Atomic.get calls.(i)) expected)
            results))
    pool_sizes

let test_observe_empty_faults () =
  (* Regression: with no faults the fault-free machine is still simulated
     and its stream returned (an early version returned all zeros). *)
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let g = Prng.create 23 in
  let stimulus = Array.init 48 (fun _ -> Prng.int g 63 - 31) in
  let drive = fir_drive fir stimulus in
  let good, results =
    Fault_sim.observe circuit ~output:"y" ~drive ~samples:48 ~faults:[||]
      ~on_fault:(fun _ _ _ -> ())
  in
  Alcotest.(check int) "no results" 0 (Array.length results);
  Alcotest.(check (array int)) "good stream = behavioural response"
    (Fir_netlist.response fir stimulus) good;
  let one_good, _ =
    Fault_sim.observe circuit ~output:"y" ~drive ~samples:48
      ~faults:(Array.sub (Fault.universe circuit) 0 1)
      ~on_fault:(fun _ _ _ -> ())
  in
  Alcotest.(check (array int)) "good stream = 1-fault run's good stream" one_good good

let test_detect_cycles_consistency () =
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let g = Prng.create 29 in
  let stimulus = Array.init 80 (fun _ -> Prng.int g 63 - 31) in
  let faults = Fault.collapse circuit (Fault.universe circuit) in
  let drive sim cycle = Fir_netlist.drive fir sim stimulus.(cycle) in
  let flags = Fault_sim.detect_exact circuit ~output:"y" ~drive ~samples:80 ~faults in
  let cycles = Fault_sim.detect_cycles circuit ~output:"y" ~drive ~samples:80 ~faults in
  Array.iteri
    (fun i c ->
      if flags.(i) <> (c >= 0) then Alcotest.failf "flag/cycle disagree on fault %d" i;
      if c >= 80 then Alcotest.failf "first cycle out of range on fault %d" i)
    cycles;
  (* Pattern compaction: truncating the sweep to the last useful cycle
     detects exactly the same fault set. *)
  let last_useful = 1 + Array.fold_left max (-1) cycles in
  Alcotest.(check bool) "something detected" true (last_useful > 0);
  let truncated =
    Fault_sim.detect_exact circuit ~output:"y" ~drive ~samples:last_useful ~faults
  in
  Alcotest.(check (array bool)) "truncated sweep detects the same set" flags truncated

let prop_dropped_faults_never_undetect =
  (* Dropping is sound: a fault detected at a shorter sweep stays detected —
     with the same first-detect cycle — at every longer sweep. *)
  QCheck.Test.make ~name:"dropped faults never un-detect" ~count:8
    (QCheck.pair (QCheck.int_range 1 1000) (QCheck.int_range 33 96))
    (fun (seed, s2) ->
      let s1 = s2 / 2 in
      let fir = small_fir () in
      let circuit = fir.Fir_netlist.circuit in
      let g = Prng.create seed in
      let stimulus = Array.init s2 (fun _ -> Prng.int g 63 - 31) in
      let faults = Fault.collapse circuit (Fault.universe circuit) in
      let drive sim cycle = Fir_netlist.drive fir sim stimulus.(cycle) in
      let short = Fault_sim.detect_cycles circuit ~output:"y" ~drive ~samples:s1 ~faults in
      let long = Fault_sim.detect_cycles circuit ~output:"y" ~drive ~samples:s2 ~faults in
      Array.for_all (fun ok -> ok)
        (Array.mapi (fun i c1 -> c1 < 0 || long.(i) = c1) short))

(* The engine against the reference on generated netlists: 1-4 inputs,
   both constants, every gate kind over fanins drawn from all earlier
   nodes (so fanouts are reused and paths reconverge), DFF chains of depth
   2-3, full adders, and an output bus of 1-8 bits holding an input and a
   DFF.  Every node of an adder joins the pool, so a later pick or a bus
   bit may read one of its internal nodes, which keeps it from running as
   one instruction.  Returns the netlist, its inputs and each adder's
   first node.  The sample counts straddle the engine's 63-cycle word
   boundaries. *)
let random_netlist g =
  let b = B.create () in
  let nodes = ref [||] in
  let add x = nodes := Array.append !nodes [| x |] in
  let pick () = !nodes.(Prng.int g (Array.length !nodes)) in
  let inputs = Array.init (1 + Prng.int g 4) (fun i -> B.input b (Printf.sprintf "x%d" i)) in
  Array.iter add inputs;
  add (B.const b false);
  add (B.const b true);
  let dffs = ref [] in
  let chain () =
    let depth = 2 + Prng.int g 2 in
    let q = ref (pick ()) in
    for _ = 1 to depth do
      q := B.dff b !q;
      dffs := !q :: !dffs;
      add !q
    done
  in
  let two =
    [| Netlist.And2; Netlist.Or2; Netlist.Nand2; Netlist.Nor2; Netlist.Xor2; Netlist.Xnor2 |]
  in
  let adders = ref [] in
  let gate k =
    if k < 6 then add (B.gate2 b two.(k) (pick ()) (pick ()))
    else if k = 6 then add (B.not_ b (pick ()))
    else if k = 7 then add (B.buf b (pick ()))
    else if k = 8 then chain ()
    else begin
      (* [Arith]'s full adder: its five gates, in its order *)
      let x = pick () and y = pick () and cin = pick () in
      let t = B.gate2 b Netlist.Xor2 x y in
      adders := t :: !adders;
      add t;
      add (B.gate2 b Netlist.Xor2 t cin);
      let xy = B.gate2 b Netlist.And2 x y in
      add xy;
      let tc = B.gate2 b Netlist.And2 t cin in
      add tc;
      add (B.gate2 b Netlist.Or2 xy tc)
    end
  in
  (* every kind once, then a random mix *)
  for k = 0 to 9 do
    gate k
  done;
  for _ = 1 to Prng.int g 30 do
    gate (Prng.int g 10)
  done;
  let dffs = Array.of_list !dffs in
  let width = 1 + Prng.int g 8 in
  let bus = Array.init width (fun _ -> pick ()) in
  (* an input and a DFF at two distinct positions, or one of them on a
     1-bit bus *)
  let at_input = Prng.int g width in
  let at_dff = (at_input + 1 + Prng.int g (max 1 (width - 1))) mod width in
  bus.(at_input) <- inputs.(Prng.int g (Array.length inputs));
  if width > 1 || Prng.int g 2 = 0 then bus.(at_dff) <- dffs.(Prng.int g (Array.length dffs));
  B.output b "y" bus;
  (Netlist.freeze b, inputs, Array.of_list !adders)

let pool4 = lazy (Pool.create ~size:4 ())

(* Classes of equivalent faults with more than one member, summed over
   the oracle's cases: the engine shares one simulation per class, so a
   run that met none would not have checked the sharing. *)
let shared_classes = ref 0

(* Observable adders the engine ran as one instruction, and those it ran
   gate by gate (an internal node read elsewhere or on the bus), summed
   over the oracle's cases: a run that met no adder of either kind would
   not have checked that path. *)
let fused_adders = ref 0
let refused_adders = ref 0

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine = single-fault reference on generated netlists" ~count:200
    (QCheck.pair (QCheck.int_range 1 1_000_000)
       (QCheck.oneofl [ 1; 62; 63; 64; 65; 126; 127; 200 ]))
    (fun (seed, samples) ->
      let g = Prng.create seed in
      let circuit, inputs, adders = random_netlist g in
      let bits = Array.init samples (fun _ -> Array.map (fun _ -> Prng.int g 2) inputs) in
      let drive sim cycle =
        Array.iteri (fun i x -> Logic_sim.drive_node sim x (-bits.(cycle).(i))) inputs
      in
      let output = "y" in
      let faults = Fault.universe circuit in
      let good = single_fault_stream circuit ~output ~drive ~samples None in
      let reference =
        Array.map (fun f -> single_fault_stream circuit ~output ~drive ~samples (Some f)) faults
      in
      let first_difference stream =
        let rec scan c =
          if c >= samples then -1 else if stream.(c) <> good.(c) then c else scan (c + 1)
        in
        scan 0
      in
      let firsts = Array.map first_difference reference in
      let rep = Fault.classes circuit ~output:(Netlist.find_output circuit output) faults in
      let shared = Array.make (Array.length faults) false in
      Array.iteri
        (fun i k ->
          if k <> i && not shared.(k) then begin
            shared.(k) <- true;
            incr shared_classes
          end)
        rep;
      let observe pool =
        Fault_sim.observe ?pool circuit ~output ~drive ~samples ~faults
          ~on_fault:(fun _ _ stream -> Array.copy stream)
      in
      let serial, counters = with_counters (fun () -> observe None) in
      let fused = counter counters "fault_sim.full_adders" in
      let obsv = Cone.observable circuit ~output:(Netlist.find_output circuit output) in
      let observable = Array.fold_left (fun k x -> if obsv.(x) then k + 1 else k) 0 adders in
      fused_adders := !fused_adders + fused;
      refused_adders := !refused_adders + max 0 (observable - fused);
      Array.for_all Fun.id (Array.mapi (fun i k -> reference.(i) = reference.(k)) rep)
      && List.for_all
        (fun pool ->
          let observed_good, streams =
            match pool with None -> serial | Some _ -> observe pool
          in
          let cycles = Fault_sim.detect_cycles ?pool circuit ~output ~drive ~samples ~faults in
          let flags = Fault_sim.detect_exact ?pool circuit ~output ~drive ~samples ~faults in
          observed_good = good && streams = reference && cycles = firsts
          && flags = Array.map (fun c -> c >= 0) firsts)
        [ None; Some (Lazy.force pool4) ])

(* The oracle as one case: its 200 generated netlists must hold a class
   of equivalent faults, an adder run as one instruction and an adder run
   gate by gate between them. *)
let engine_oracle =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_engine_matches_reference in
  ( name,
    speed,
    fun () ->
      shared_classes := 0;
      fused_adders := 0;
      refused_adders := 0;
      run ();
      if !shared_classes = 0 then Alcotest.fail "no generated netlist had a shared class";
      if !fused_adders = 0 then Alcotest.fail "no generated adder ran as one instruction";
      if !refused_adders = 0 then Alcotest.fail "every generated adder ran as one instruction" )

(* ---- FIR datapath ---- *)

let test_fir_netlist_exactness () =
  let design = Msoc_dsp.Fir.lowpass ~taps:9 ~cutoff:0.15 () in
  let codes, scale = Msoc_dsp.Fir.quantize design.Msoc_dsp.Fir.taps ~bits:8 in
  let fir = Fir_netlist.create ~coeffs:codes ~width_in:10 ~scale () in
  let g = Prng.create 15 in
  let xs = Array.init 200 (fun _ -> Prng.int g 1023 - 511) in
  let golden = Fir_netlist.response fir xs in
  let sim = Logic_sim.create fir.Fir_netlist.circuit in
  let ybus = Fir_netlist.output_bus fir in
  Array.iteri
    (fun n x ->
      Fir_netlist.drive fir sim x;
      Logic_sim.eval sim;
      let y = Logic_sim.read_bus_lane sim ybus ~lane:0 in
      if y <> golden.(n) then Alcotest.failf "mismatch at sample %d" n;
      Logic_sim.tick sim)
    xs

let prop_fir_netlist_random_configs =
  QCheck.Test.make ~name:"random FIR netlists match integer golden model" ~count:12
    (QCheck.triple (QCheck.int_range 2 8) (QCheck.int_range 4 8) (QCheck.int_range 5 9))
    (fun (taps, coeff_bits, width_in) ->
      let design = Msoc_dsp.Fir.lowpass ~taps ~cutoff:0.2 () in
      let codes, scale = Msoc_dsp.Fir.quantize design.Msoc_dsp.Fir.taps ~bits:coeff_bits in
      let fir = Fir_netlist.create ~coeffs:codes ~width_in ~scale () in
      let g = Prng.create (taps + (coeff_bits * 100) + (width_in * 7)) in
      let range = (1 lsl width_in) - 1 in
      let xs = Array.init 50 (fun _ -> Prng.int g range - (range / 2)) in
      let golden = Fir_netlist.response fir xs in
      let sim = Logic_sim.create fir.Fir_netlist.circuit in
      let ybus = Fir_netlist.output_bus fir in
      Array.for_all (fun b -> b)
        (Array.mapi
           (fun n x ->
             Fir_netlist.drive fir sim x;
             Logic_sim.eval sim;
             let y = Logic_sim.read_bus_lane sim ybus ~lane:0 in
             Logic_sim.tick sim;
             y = golden.(n))
           xs))

let test_fir_regions () =
  let fir = small_fir () in
  let site = Fir_netlist.fault_site fir ~tap:2 ~role:Fir_netlist.Adder in
  let node = site.Fault.node in
  (match
     List.find_opt
       (fun r -> node >= r.Fir_netlist.first_node && node <= r.Fir_netlist.last_node)
       fir.Fir_netlist.regions
   with
  | Some r ->
    Alcotest.(check int) "tap" 2 r.Fir_netlist.tap;
    Alcotest.(check bool) "role" true (r.Fir_netlist.role = Fir_netlist.Adder)
  | None -> Alcotest.fail "fault site not inside its region");
  Alcotest.(check bool) "has multiplier regions" true
    (List.exists (fun r -> r.Fir_netlist.role = Fir_netlist.Multiplier) fir.Fir_netlist.regions);
  Alcotest.(check bool) "has register regions" true
    (List.exists (fun r -> r.Fir_netlist.role = Fir_netlist.Register) fir.Fir_netlist.regions)

let test_fir_input_clamping () =
  (* width 6 -> range [-32, 31]: out-of-range samples drive the rails, in
     the netlist and in the golden model alike *)
  let fir = small_fir () in
  let xs = [| 200; -200; 0; 31; -32; 1000; 5 |] in
  let clamped = [| 31; -32; 0; 31; -32; 31; 5 |] in
  let golden = Fir_netlist.response fir clamped in
  Alcotest.(check (array int)) "golden model clamps" golden (Fir_netlist.response fir xs);
  let sim = Logic_sim.create fir.Fir_netlist.circuit in
  let ybus = Fir_netlist.output_bus fir in
  Array.iteri
    (fun n x ->
      Fir_netlist.drive fir sim x;
      Logic_sim.eval sim;
      Alcotest.(check int) (Printf.sprintf "netlist clamps sample %d" n) golden.(n)
        (Logic_sim.read_bus_lane sim ybus ~lane:0);
      Logic_sim.tick sim)
    xs

let test_fir_widest_input () =
  (* the widest input the coefficients allow builds and is exact at both
     rails; one bit more is refused up front, naming the width *)
  List.iter
    (fun coeffs ->
      let widest = Fir_netlist.max_width_in coeffs in
      let fir = Fir_netlist.create ~coeffs ~width_in:widest () in
      let rail = 1 lsl (widest - 1) in
      let xs = [| rail - 1; -rail; rail - 1; 0; -rail; -rail; rail - 1 |] in
      let golden = Fir_netlist.response fir xs in
      let sim = Logic_sim.create fir.Fir_netlist.circuit in
      let ybus = Fir_netlist.output_bus fir in
      Array.iteri
        (fun n x ->
          Fir_netlist.drive fir sim x;
          Logic_sim.eval sim;
          Alcotest.(check int) (Printf.sprintf "width %d, sample %d" widest n) golden.(n)
            (Logic_sim.read_bus_lane sim ybus ~lane:0);
          Logic_sim.tick sim)
        xs;
      match Fir_netlist.create ~coeffs ~width_in:(widest + 1) () with
      | _ -> Alcotest.failf "width %d must be refused" (widest + 1)
      | exception Invalid_argument msg ->
        let names_width_in =
          List.exists
            (fun i -> String.sub msg i 8 = "width_in")
            (List.init (String.length msg - 7) Fun.id)
        in
        Alcotest.(check bool) (Printf.sprintf "%S names width_in" msg) true names_width_in)
    [ [| -1 |]; [| 1 |]; [| 3; -5; 7 |]; [| 127; -128; 64; 1 |]; [| 536870911 |] ]

let test_fir_dc_gain_via_netlist () =
  (* Constant input: steady-state output = sum of coeffs * input. *)
  let fir = small_fir () in
  let xs = Array.make 40 13 in
  let golden = Fir_netlist.response fir xs in
  let expected = Array.fold_left (fun acc c -> acc + (c * 13)) 0 fir.Fir_netlist.coeffs in
  Alcotest.(check int) "steady state dc" expected golden.(39)

(* ---- Direct-form architecture ---- *)

let test_direct_form_matches_golden () =
  let design = Msoc_dsp.Fir.lowpass ~taps:7 ~cutoff:0.15 () in
  let codes, scale = Msoc_dsp.Fir.quantize design.Msoc_dsp.Fir.taps ~bits:7 in
  let fir =
    Fir_netlist.create ~coeffs:codes ~width_in:9 ~scale ~architecture:Fir_netlist.Direct ()
  in
  let g = Prng.create 77 in
  let xs = Array.init 120 (fun _ -> Prng.int g 511 - 255) in
  let golden = Fir_netlist.response fir xs in
  let sim = Logic_sim.create fir.Fir_netlist.circuit in
  let ybus = Fir_netlist.output_bus fir in
  Array.iteri
    (fun n x ->
      Fir_netlist.drive fir sim x;
      Logic_sim.eval sim;
      if Logic_sim.read_bus_lane sim ybus ~lane:0 <> golden.(n) then
        Alcotest.failf "direct form mismatch at %d" n;
      Logic_sim.tick sim)
    xs

let test_architectures_agree () =
  let design = Msoc_dsp.Fir.lowpass ~taps:6 ~cutoff:0.2 () in
  let codes, scale = Msoc_dsp.Fir.quantize design.Msoc_dsp.Fir.taps ~bits:6 in
  let make architecture = Fir_netlist.create ~coeffs:codes ~width_in:8 ~scale ~architecture () in
  let run fir xs =
    let sim = Logic_sim.create fir.Fir_netlist.circuit in
    let ybus = Fir_netlist.output_bus fir in
    Array.map
      (fun x ->
        Fir_netlist.drive fir sim x;
        Logic_sim.eval sim;
        let y = Logic_sim.read_bus_lane sim ybus ~lane:0 in
        Logic_sim.tick sim;
        y)
      xs
  in
  let g = Prng.create 3 in
  let xs = Array.init 80 (fun _ -> Prng.int g 255 - 127) in
  Alcotest.(check (array int)) "transposed = direct"
    (run (make Fir_netlist.Transposed) xs)
    (run (make Fir_netlist.Direct) xs)

(* ---- Netlist_io ---- *)

(* Write [circuit] as [msoc netlist --output] does and parse the file. *)
let io_roundtrip circuit =
  let file = Filename.temp_file "msoc_netlist" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Netlist_io.save file circuit;
      Netlist_io.of_string (In_channel.with_open_text file In_channel.input_all))

let test_io_roundtrip_exact () =
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let back = io_roundtrip circuit in
  Alcotest.(check int) "node count" (Netlist.node_count circuit) (Netlist.node_count back);
  for node = 0 to Netlist.node_count circuit - 1 do
    if Netlist.kind circuit node <> Netlist.kind back node then
      Alcotest.failf "kind mismatch at node %d" node;
    if Netlist.fanin circuit node <> Netlist.fanin back node then
      Alcotest.failf "fanin mismatch at node %d" node
  done;
  Alcotest.(check int) "outputs preserved"
    (Array.length (Netlist.outputs circuit))
    (Array.length (Netlist.outputs back))

let test_io_roundtrip_behaviour () =
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let back = io_roundtrip circuit in
  let g = Prng.create 5 in
  let xs = Array.init 60 (fun _ -> Prng.int g 63 - 31) in
  let run c =
    let sim = Logic_sim.create c in
    let xbus = Netlist.find_output c "x" and ybus = Netlist.find_output c "y" in
    Array.map
      (fun x ->
        Logic_sim.drive_bus sim xbus x;
        Logic_sim.eval sim;
        let y = Logic_sim.read_bus_lane sim ybus ~lane:0 in
        Logic_sim.tick sim;
        y)
      xs
  in
  Alcotest.(check (array int)) "same behaviour" (run circuit) (run back)

let test_io_rejects_garbage () =
  Alcotest.(check bool) "undefined node" true
    (try ignore (Netlist_io.of_string "n1 = AND(n0, n0)\n"); false with Failure _ -> true);
  Alcotest.(check bool) "unknown gate" true
    (try ignore (Netlist_io.of_string "INPUT(a n0)\nn1 = FROB(n0)\n"); false
     with Failure _ -> true);
  Alcotest.(check bool) "wrong arity" true
    (try ignore (Netlist_io.of_string "INPUT(a n0)\nn1 = NOT(n0, n0)\n"); false
     with Failure _ -> true)

(* ---- Transition faults ---- *)

let test_transition_universe_size () =
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  Alcotest.(check int) "same size as stuck-at universe"
    (Array.length (Fault.universe circuit))
    (Array.length (Transition.universe circuit))

let test_transition_coverage_bounds () =
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let faults = Transition.universe circuit in
  let g = Prng.create 31 in
  let stimulus = Array.init 256 (fun _ -> Prng.int g 63 - 31) in
  let drive sim cycle = Fir_netlist.drive fir sim stimulus.(cycle) in
  let r = Transition.coverage circuit ~output:"y" ~drive ~samples:256 ~faults in
  Alcotest.(check int) "partition" r.Transition.total
    (r.Transition.covered + r.Transition.untoggled + r.Transition.unobserved);
  Alcotest.(check bool) "meaningful coverage" true (r.Transition.coverage > 0.5);
  (* transition coverage can never exceed the stuck-at coverage of the
     corresponding capture faults *)
  let stuck = Fault.universe circuit in
  let detected = Fault_sim.detect_exact circuit ~output:"y" ~drive ~samples:256 ~faults:stuck in
  let stuck_detected = Array.fold_left (fun a f -> if f then a + 1 else a) 0 detected in
  Alcotest.(check bool) "bounded by stuck-at detection" true
    (r.Transition.covered <= stuck_detected)

let test_transition_constant_node_untoggled () =
  (* a net that never toggles cannot have its transition fault covered *)
  let b = B.create () in
  let a = B.input b "a" in
  let k = B.const b true in
  let frozen = B.gate2 b Netlist.Or2 a k in (* always 1: never falls *)
  let y = B.gate2 b Netlist.And2 frozen a in
  B.output b "y" [| y |];
  let circuit = Netlist.freeze b in
  let faults = [| { Transition.node = frozen; polarity = Transition.Slow_to_fall } |] in
  let g = Prng.create 1 in
  let drive sim _ = Logic_sim.drive_node sim a (if Prng.float g < 0.5 then -1 else 0) in
  let r = Transition.coverage circuit ~output:"y" ~drive ~samples:64 ~faults in
  Alcotest.(check int) "untoggled" 1 r.Transition.untoggled

(* ---- Atpg_lite ---- *)

let test_atpg_grading_reasonable () =
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let faults = Fault.collapse circuit (Fault.universe circuit) in
  let r = Atpg_lite.grade circuit ~output:"y" ~faults Atpg_lite.default_config in
  Alcotest.(check bool) "good coverage from random patterns" true (r.Atpg_lite.coverage > 0.8);
  Alcotest.(check int) "flags length" (Array.length faults)
    (Array.length r.Atpg_lite.detected_flags);
  Alcotest.(check int) "detected consistent" r.Atpg_lite.detected
    (Array.fold_left (fun a f -> if f then a + 1 else a) 0 r.Atpg_lite.detected_flags)

let test_atpg_deterministic () =
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let faults = Fault.collapse circuit (Fault.universe circuit) in
  let config = { Atpg_lite.default_config with Atpg_lite.patterns = 128 } in
  let a = Atpg_lite.grade circuit ~output:"y" ~faults config in
  let b = Atpg_lite.grade circuit ~output:"y" ~faults config in
  Alcotest.(check int) "same detection" a.Atpg_lite.detected b.Atpg_lite.detected

let test_atpg_prefix_stability () =
  (* The stimulus table is prefix-stable, so a grading at p patterns must
     agree with the first-detect cycles of a grading at 2p patterns. *)
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let faults = Fault.collapse circuit (Fault.universe circuit) in
  let small =
    Atpg_lite.grade circuit ~output:"y" ~faults
      { Atpg_lite.default_config with Atpg_lite.patterns = 64 }
  in
  let large =
    Atpg_lite.grade circuit ~output:"y" ~faults
      { Atpg_lite.default_config with Atpg_lite.patterns = 128 }
  in
  Array.iteri
    (fun i f ->
      if f && not large.Atpg_lite.detected_flags.(i) then
        Alcotest.failf "fault %d detected at 64 patterns but not at 128" i)
    small.Atpg_lite.detected_flags;
  Alcotest.(check bool) "last useful pattern within sweep" true
    (small.Atpg_lite.last_useful_pattern <= 64
    && large.Atpg_lite.last_useful_pattern <= 128)

let test_atpg_last_useful_pattern_compacts () =
  let fir = small_fir () in
  let circuit = fir.Fir_netlist.circuit in
  let faults = Fault.collapse circuit (Fault.universe circuit) in
  let config = { Atpg_lite.default_config with Atpg_lite.patterns = 128 } in
  let r = Atpg_lite.grade circuit ~output:"y" ~faults config in
  Alcotest.(check bool) "prefix non-trivial" true
    (r.Atpg_lite.last_useful_pattern > 0 && r.Atpg_lite.last_useful_pattern <= 128);
  let compacted =
    Atpg_lite.grade circuit ~output:"y" ~faults
      { config with Atpg_lite.patterns = r.Atpg_lite.last_useful_pattern }
  in
  Alcotest.(check (array bool)) "compacted sweep detects the same set"
    r.Atpg_lite.detected_flags compacted.Atpg_lite.detected_flags

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "msoc_netlist"
    [ ( "ir",
        [ Alcotest.test_case "gate truth tables" `Quick test_gate_truth_tables;
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "dff timing" `Quick test_dff_delays_one_cycle;
          Alcotest.test_case "dangling ref rejected" `Quick test_combinational_cycle_rejected;
          Alcotest.test_case "topological order" `Quick test_eval_order_topological;
          Alcotest.test_case "fanout counts" `Quick test_fanout_counts;
          Alcotest.test_case "gate counts/stats" `Quick test_gate_counts_and_stats ] );
      ( "arith",
        Alcotest.test_case "ripple adder exhaustive" `Quick test_ripple_adder_exhaustive
        :: Alcotest.test_case "scale const known" `Quick test_scale_const_known_coeffs
        :: Alcotest.test_case "width helpers" `Quick test_width_helpers
        :: Alcotest.test_case "negate" `Quick test_negate_and_sub
        :: Alcotest.test_case "const bus" `Quick test_const_bus
        :: qcheck [ prop_scale_const_random; prop_csd_properties ] );
      ( "fault",
        [ Alcotest.test_case "universe size" `Quick test_fault_universe_size;
          Alcotest.test_case "collapse through inverter chain" `Quick
            test_fault_collapse_not_chain;
          Alcotest.test_case "fanout blocks collapse" `Quick test_fault_no_collapse_on_fanout;
          Alcotest.test_case "injection behaviour" `Quick test_injected_fault_behaviour ] );
      ( "fault-sim",
        [ Alcotest.test_case "parallel matches serial" `Quick
            test_parallel_fault_sim_matches_serial;
          Alcotest.test_case "DFF, input and output-bus faults" `Quick
            test_observer_node_kinds;
          Alcotest.test_case "unobservable faults get the good stream" `Quick
            test_observer_unobservable_faults;
          Alcotest.test_case "good stream = golden" `Quick test_good_stream_matches_response;
          Alcotest.test_case "detect_exact consistency" `Quick test_detect_exact_matches_streams;
          Alcotest.test_case "observer fault order" `Quick test_observer_fault_order;
          Alcotest.test_case "empty fault list still simulates good machine" `Quick
            test_observe_empty_faults;
          Alcotest.test_case "detect_cycles consistency + compaction" `Quick
            test_detect_cycles_consistency;
          Alcotest.test_case "work counters identical across pool sizes" `Quick
            test_work_counters_pool_invariant ]
        @ qcheck [ prop_dropped_faults_never_undetect ] @ [ engine_oracle ] );
      ( "fir-netlist",
        Alcotest.test_case "exactness vs golden" `Quick test_fir_netlist_exactness
        :: Alcotest.test_case "regions" `Quick test_fir_regions
        :: Alcotest.test_case "input clamping" `Quick test_fir_input_clamping
        :: Alcotest.test_case "widest input" `Quick test_fir_widest_input
        :: Alcotest.test_case "dc gain" `Quick test_fir_dc_gain_via_netlist
        :: Alcotest.test_case "direct form vs golden" `Quick test_direct_form_matches_golden
        :: Alcotest.test_case "architectures agree" `Quick test_architectures_agree
        :: qcheck [ prop_fir_netlist_random_configs ] );
      ( "netlist-io",
        [ Alcotest.test_case "roundtrip structure" `Quick test_io_roundtrip_exact;
          Alcotest.test_case "roundtrip behaviour" `Quick test_io_roundtrip_behaviour;
          Alcotest.test_case "rejects garbage" `Quick test_io_rejects_garbage ] );
      ( "transition",
        [ Alcotest.test_case "universe size" `Quick test_transition_universe_size;
          Alcotest.test_case "coverage bounds" `Quick test_transition_coverage_bounds;
          Alcotest.test_case "untoggled net" `Quick test_transition_constant_node_untoggled ] );
      ( "atpg-lite",
        [ Alcotest.test_case "grading reasonable" `Quick test_atpg_grading_reasonable;
          Alcotest.test_case "deterministic" `Quick test_atpg_deterministic;
          Alcotest.test_case "stimulus prefix stability" `Quick test_atpg_prefix_stability;
          Alcotest.test_case "last useful pattern compacts" `Quick
            test_atpg_last_useful_pattern_compacts ] ) ]
